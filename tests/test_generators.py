"""Byte pins for the synthetic instance generators.

Every synthetic ``log.csv`` depends on these arrays bit for bit.  The SHA-256
digests below were recorded from the per-pixel loop implementations, which
are kept here as references and must agree exactly on further arguments.
"""

import hashlib

import numpy as np
import pytest

from linbreg.problems import classify, synthetic_digits
from linbreg.problems.classify import _DIGIT_BLOCK as BLOCK, _glyph
from linbreg.problems.deconv import motion_kernel
from linbreg.problems.mri import spiral_mask


def digest(*arrays):
    """SHA-256 over each array's dtype, shape and C-order bytes."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def digits_loop(seed, n, side=28):
    rng = np.random.default_rng(seed)
    scale = side // 7
    pad = side - 5 * scale
    D = np.zeros((side * side, n))
    labels = np.zeros(n, dtype=np.int64)
    for i in range(n):
        d = int(rng.integers(0, 10))
        img = np.kron(_glyph(d), np.ones((scale, scale)))
        img = np.pad(img, ((0, side - img.shape[0]), (pad // 2, pad - pad // 2)))
        img = np.roll(img, (int(rng.integers(-2, 3)), int(rng.integers(-2, 3))), axis=(0, 1))
        img = img * rng.uniform(0.75, 1.0) + 0.05 * rng.uniform(size=img.shape)
        D[:, i] = np.clip(img, 0.0, 1.0).ravel()
        labels[i] = d
    return D, labels


def kernel_loop(shape, angle):
    kh, kw = shape
    ch, cw = (kh - 1) / 2.0, (kw - 1) / 2.0
    length = max(kh, kw)
    ts = np.linspace(-0.5, 0.5, 64 * length)
    ys = ch + ts * length * np.sin(angle)
    xs = cw + ts * length * np.cos(angle)
    k = np.zeros(shape)
    ii, jj = np.mgrid[0:kh, 0:kw]
    for y, x in zip(ys, xs):
        k += np.exp(-((ii - y) ** 2 + (jj - x) ** 2) / 0.5)
    return k / k.sum()


def spiral_loop(N, turns=4.0, samples_per_turn=2400):
    centred = np.zeros((N, N), dtype=bool)
    thetas = np.linspace(0.0, 2.0 * np.pi * turns, int(samples_per_turn * turns))
    rmax = N / 2.0
    for t in thetas:
        rad = rmax * t / (2.0 * np.pi * turns)
        y = int(round(N / 2.0 + rad * np.sin(t)))
        x = int(round(N / 2.0 + rad * np.cos(t)))
        for dy in (0, 1):
            for dx in (0, 1):
                yy, xx = y + dy, x + dx
                if 0 <= yy < N and 0 <= xx < N:
                    centred[yy, xx] = True
    return np.fft.ifftshift(centred).astype(np.float64)


DIGITS_SHA = {
    (0, 40, 28): "f37c296274a9a46ee8451ab6a458218421c649d776e1d5fdc88b1df83219342e",
    (7, 13, 14): "e37809f52816e7f23f58ccd43e832c5779ad369fcfca8fbfa2125296150a6e95",
    (2**40 + 3, 5, 21): "813dfbb71b94b74bc024f0d59112ba4713775b12bb75762c3f84634a066d0b44",
}

KERNEL_SHA = {
    ((3, 5), np.pi / 6): "7605b6651eb1ea3e302744e2888c5cd19bb25f88daa9aede46e69141d745d4b1",
    ((3, 5), 1.0): "fadc1a634eb2f165ced6126ce2fee58a7b032ef57d974f380723baa0149c2f23",
    ((5, 3), np.pi / 6): "de9676b3e4fd6ef7dbd566436c32f38c2e334e48af815ff50a9b971b09ba758c",
    ((5, 3), 1.0): "3399af46a6ff8c9641e92809d01fdbbdcee8e461cf49df13af7afa7cb90c0c79",
    ((1, 1), np.pi / 6): "8ce66f027606516f5b888bf617902d1d644c303354a24ec7c4b87258e73e0ec1",
    ((1, 1), 1.0): "8ce66f027606516f5b888bf617902d1d644c303354a24ec7c4b87258e73e0ec1",
    ((7, 4), np.pi / 6): "33e625a4f38742ec142034d3e3a2b4566a5960664ddc618b57550f53b1d000ce",
    ((7, 4), 1.0): "b70c8bbcbf8d63a9d9c16d0628d84517e492f370138bfc0f4b813258affbe6ed",
}

SPIRAL_SHA = {
    2: "9c1c55f9a91628d3605c520a61f51abd1ec8972050b9a0f4345ea71a9f992e23",
    16: "44adb6fd5a75e2fa71878ce6120bde7d30df32d1d4ce502eea6b41db18eda735",
    33: "4980747d34dd5bc3f7648a5b68d0085789dc2a6d62a3117a9ed21e18d0743662",
    64: "f431c92e36c612350873ec99520d54521233647fc888c22eec3da7a040f3d8d5",
}


class TestDigestPins:
    @pytest.mark.parametrize("args", list(DIGITS_SHA), ids=str)
    def test_synthetic_digits(self, args):
        assert digest(*synthetic_digits(*args)) == DIGITS_SHA[args]

    @pytest.mark.parametrize("shape, angle", list(KERNEL_SHA), ids=str)
    def test_motion_kernel(self, shape, angle):
        assert digest(motion_kernel(shape, angle)) == KERNEL_SHA[shape, angle]

    @pytest.mark.parametrize("N", list(SPIRAL_SHA))
    def test_spiral_mask(self, N):
        assert digest(spiral_mask(N)) == SPIRAL_SHA[N]


class TestLoopReferences:
    # 500 at side 28 is the bench size; the rest sit at the edges of the
    # blocks synthetic_digits builds its images in
    @pytest.mark.parametrize("seed, n, side",
                             [(3, 25, 28), (1, 4, 0), (5, 6, 1), (8, 9, 6), (4, 7, 35),
                              (2, 500, 28), (6, BLOCK - 1, 28), (7, BLOCK, 28),
                              (9, BLOCK + 1, 14), (10, 2 * BLOCK + 3, 28), (11, 0, 28)])
    def test_synthetic_digits(self, seed, n, side):
        D, labels = synthetic_digits(seed, n, side)
        assert digest(D, labels) == digest(*digits_loop(seed, n, side))
        assert D.flags.c_contiguous

    # (31, 31) and (70, 2) evaluate their profiles in more than one chunk
    @pytest.mark.parametrize("shape", [(1, 4), (4, 1), (9, 6), (31, 31), (70, 2)], ids=str)
    @pytest.mark.parametrize("angle", [0.0, -1.2, 2.5])
    def test_motion_kernel(self, shape, angle):
        assert digest(motion_kernel(shape, angle)) == digest(kernel_loop(shape, angle))

    @pytest.mark.parametrize("args", [(1,), (7,), (40,), (20, 2.5, 333), (10, 4.0, 1)], ids=str)
    def test_spiral_mask(self, args):
        assert digest(spiral_mask(*args)) == digest(spiral_loop(*args))


# PCG64's LCG multiplier: each draw steps state <- state * MULT + inc (mod
# 2^128), then outputs the xor of the state's halves rotated right by its top
# six bits
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def pcg64_at(word, out, seed=0):
    """A PCG64 generator whose ``word``-th raw output (from 0) is ``out``."""
    inc = np.random.PCG64(seed).state["state"]["inc"]
    # a post-step state with rotation 0 outputs hi ^ lo
    lo = 0x0123456789ABCDEF
    state = (lo ^ out) << 64 | lo
    inverse = pow(PCG64_MULT, -1, 2**128)
    for _ in range(word + 1):
        state = (state - inc) * inverse % 2**128
    bitgen = np.random.PCG64(seed)
    bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bitgen)


class TestRawWordDraws:
    """``_draw_block`` against ``_draw_per_sample``: the same values, and the
    bit generator left at the same word."""

    def draws(self, draw, rng, k, side):
        ints = np.empty((k, 3), dtype=np.int64)
        amps = np.empty(k)
        noise = np.empty((k, side * side))
        draw(rng, ints, amps, noise)
        return digest(ints, amps, noise), int(rng.bit_generator.random_raw())

    def spy(self, monkeypatch):
        """The list of the blocks ``_draw_per_sample`` draws from here on."""
        calls = []
        per_sample = classify._draw_per_sample

        def recorded(rng, ints, amps, noise):
            calls.append(len(amps))
            per_sample(rng, ints, amps, noise)

        monkeypatch.setattr(classify, "_draw_per_sample", recorded)
        return calls

    @pytest.mark.parametrize("k, side", [(1, 28), (2, 28), (7, 5), (BLOCK, 3), (3, 0)], ids=str)
    def test_decoded_block(self, monkeypatch, k, side):
        calls = self.spy(monkeypatch)
        decoded = self.draws(classify._draw_block, np.random.default_rng(k + side), k, side)
        assert not calls
        assert decoded == self.draws(classify._draw_per_sample,
                                     np.random.default_rng(k + side), k, side)

    # At side 3 a pair of samples is 23 words.  A zero half-word is below
    # Lemire's redraw threshold for the digit and for each shift: sample 0's
    # digit (word 0, low), sample 1's digit (word 1, high) and row shift (word
    # 12, low), sample 2's row shift (word 23, high), sample 3's column shift
    # (word 35, high).
    @pytest.mark.parametrize("word, high", [(0, 0), (1, 1), (12, 0), (23, 1), (35, 1)])
    def test_redraw_replays_the_block_per_sample(self, monkeypatch, word, high):
        out = 0xBEEF << (32 - 32 * high)  # zero in the chosen half
        assert int(pcg64_at(word, out).bit_generator.random_raw(word + 1)[-1]) == out
        calls = self.spy(monkeypatch)
        decoded = self.draws(classify._draw_block, pcg64_at(word, out), 4, 3)
        assert calls == [4]
        assert decoded == self.draws(classify._draw_per_sample, pcg64_at(word, out), 4, 3)

    def test_a_kept_half_word_draws_per_sample(self, monkeypatch):
        rng = np.random.default_rng(4)
        rng.integers(0, 10)
        calls = self.spy(monkeypatch)
        decoded = self.draws(classify._draw_block, rng, 2, 4)
        assert calls == [2]
        expected = np.random.default_rng(4)
        expected.integers(0, 10)
        assert decoded == self.draws(classify._draw_per_sample, expected, 2, 4)
