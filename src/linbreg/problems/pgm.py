"""Binary PGM (P5) image input/output, 8-bit and 16-bit."""

from __future__ import annotations

import re

import numpy as np

# whitespace and '#' comments, then one header token (None at the end of the data)
_HEADER_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*([^\s#]\S*)?")


def write_pgm(path, image: np.ndarray, maxval: int = 65535) -> None:
    """Write an integer-valued image as binary PGM; maxval 255 or 65535."""
    if maxval not in (255, 65535):
        raise ValueError("maxval must be 255 or 65535")
    img = np.asarray(image)
    if img.ndim != 2:
        raise ValueError("PGM images are 2-D")
    if np.any(img < 0) or np.any(img > maxval):
        raise ValueError("pixel values outside [0, maxval]")
    data = img.astype(">u2" if maxval == 65535 else "u1")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n{maxval}\n".encode("ascii"))
        fh.write(data.tobytes())


def read_pgm(path) -> tuple[np.ndarray, int]:
    """Read a binary PGM; returns (image as int array, maxval)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.startswith(b"P5"):
        raise ValueError("not a binary PGM (P5) file")
    # header = magic, width, height, maxval as whitespace-separated tokens,
    # with '#' comment lines allowed
    tokens, pos = [], 2
    for _ in range(3):
        m = _HEADER_TOKEN.match(raw, pos)
        if m[1] is None:
            raise ValueError("PGM header ends before width, height and maxval")
        tokens.append(m[1])
        pos = m.end()
    pos += 1  # single whitespace after maxval
    width, height, maxval = int(tokens[0]), int(tokens[1]), int(tokens[2])
    if width < 0 or height < 0:
        raise ValueError(f"negative PGM dimensions {width} x {height}")
    if maxval not in (255, 65535):
        raise ValueError(f"unsupported maxval {maxval}")
    dtype = ">u2" if maxval == 65535 else "u1"
    count = width * height
    img = np.frombuffer(raw, dtype=dtype, count=count, offset=pos)
    return img.reshape(height, width).astype(np.int64), maxval
