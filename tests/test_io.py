import numpy as np
import pytest

from linbreg.problems import (
    load_digit_set,
    read_idx_images,
    read_idx_labels,
    read_pgm,
    write_pgm,
)
from helpers import write_idx_images, write_idx_labels


class TestPgm:
    @pytest.mark.parametrize("maxval", [255, 65535])
    def test_roundtrip(self, tmp_path, maxval):
        rng = np.random.default_rng(0)
        img = rng.integers(0, maxval + 1, size=(7, 5))
        path = tmp_path / "img.pgm"
        write_pgm(path, img, maxval=maxval)
        back, mv = read_pgm(path)
        assert mv == maxval
        assert np.array_equal(back, img)

    def test_rejects_out_of_range(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "x.pgm", np.array([[300]]), maxval=255)

    def test_rejects_non_p5(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"P2\n1 1\n255\n0\n")
        with pytest.raises(ValueError):
            read_pgm(p)

    @pytest.mark.parametrize("header", [b"P5\n-1 1\n255\n", b"P5\n-2 2\n255\n",
                                        b"P5\n2 -3\n255\n"])
    def test_rejects_negative_dimensions(self, tmp_path, header):
        # 6 pixel bytes are enough for any shape a negative product could take
        p = tmp_path / "x.pgm"
        p.write_bytes(header + bytes(6))
        with pytest.raises(ValueError, match="negative"):
            read_pgm(p)

    @pytest.mark.parametrize("raw", [b"P5", b"P5\n4", b"P5\n4 4", b"P5\n4 4\n# no maxval"])
    def test_rejects_header_cut_short(self, tmp_path, raw):
        p = tmp_path / "x.pgm"
        p.write_bytes(raw)
        with pytest.raises(ValueError, match="header ends"):
            read_pgm(p)

    def test_rejects_truncated_pixels(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
        with pytest.raises(ValueError):
            read_pgm(p)

    def test_header_comments_allowed(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n# a comment\n2 1\n255\n" + bytes([7, 9]))
        img, mv = read_pgm(p)
        assert np.array_equal(img, [[7, 9]])


class TestIdx:
    def test_images_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        imgs = rng.integers(0, 256, size=(10, 28, 28), dtype=np.uint8)
        path = tmp_path / "imgs.idx"
        write_idx_images(path, imgs)
        assert np.array_equal(read_idx_images(path), imgs)

    def test_labels_roundtrip(self, tmp_path):
        labels = np.arange(10, dtype=np.uint8) % 10
        path = tmp_path / "labels.idx"
        write_idx_labels(path, labels)
        assert np.array_equal(read_idx_labels(path), labels)

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "imgs.idx"
        write_idx_labels(path, np.zeros(3, dtype=np.uint8))
        with pytest.raises(ValueError):
            read_idx_images(path)

    def test_truncation_detected(self, tmp_path):
        import struct

        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">iiii", 2051, 4, 28, 28) + b"\0" * 10)
        with pytest.raises(ValueError):
            read_idx_images(path)

    def test_load_digit_set(self, tmp_path):
        rng = np.random.default_rng(2)
        imgs = rng.integers(0, 256, size=(6, 28, 28), dtype=np.uint8)
        labels = rng.integers(0, 10, size=6, dtype=np.uint8)
        write_idx_images(tmp_path / "i.idx", imgs)
        write_idx_labels(tmp_path / "l.idx", labels)
        D, lab = load_digit_set(tmp_path / "i.idx", tmp_path / "l.idx", limit=4)
        assert D.shape == (784, 4)
        assert D.max() <= 1.0
        assert np.array_equal(lab, labels[:4])
        assert np.allclose(D[:, 0], imgs[0].ravel() / 255.0)
