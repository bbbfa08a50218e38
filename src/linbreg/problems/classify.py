"""Image classification with a small fully-connected network.

The network is rho_1(A_1 rho_2(A_2 ... rho_l(A_l x))) with a single activation
kind shared by all layers; the energy is a data-misfit between the network
output on the training matrix and the one-hot label matrix, plus a small
squared-Frobenius term that bounds the level sets.  The solver sees the
concatenated flattened weight matrices.
"""

from __future__ import annotations

import functools

import numpy as np

from ..exceptions import NumericsError
from ..solver import StackedObjective


# ---------------------------------------------------------------------------
# activations: value and backprop through one layer
# ---------------------------------------------------------------------------

def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class Activation:
    """Elementwise or columnwise layer nonlinearity."""

    def value(self, z):
        raise NotImplementedError

    def backprop(self, z, g):
        """Apply the (transposed) Jacobian at pre-activation z to upstream g."""
        raise NotImplementedError


class Rectifier(Activation):
    """Clipped linear unit min(1, max(0, y)); derivative defined as 0 at the kinks."""

    def value(self, z):
        return np.clip(z, 0.0, 1.0)

    def backprop(self, z, g):
        return g * ((z > 0.0) & (z < 1.0))


class SmoothMax(Activation):
    """Pointwise smooth maximum (y e^{by} + c e^{bc}) / (e^{by} + e^{bc})."""

    def __init__(self, beta: float = 5.0, c: float = 0.0):
        self.beta = float(beta)
        self.c = float(c)

    def value(self, z):
        s = _sigmoid(self.beta * (z - self.c))
        return z * s + self.c * (1.0 - s)

    def backprop(self, z, g):
        s = _sigmoid(self.beta * (z - self.c))
        return g * (s + self.beta * s * (1.0 - s) * (z - self.c))


class SoftMax(Activation):
    """Columnwise soft-max; outputs satisfy the simplex constraint per column."""

    def value(self, z):
        e = np.exp(z - np.max(z, axis=0, keepdims=True))
        return e / np.sum(e, axis=0, keepdims=True)

    def backprop(self, z, g):
        s = self.value(z)
        return s * (g - np.sum(s * g, axis=0, keepdims=True))


ACTIVATION_KINDS = ("rectifier", "smooth-max", "soft-max")


def make_activation(kind: str, beta: float = 5.0, c: float = 0.0) -> Activation:
    if kind == "rectifier":
        return Rectifier()
    if kind == "smooth-max":
        return SmoothMax(beta=beta, c=c)
    if kind == "soft-max":
        return SoftMax()
    raise ValueError(f"unknown activation kind {kind!r}")


# ---------------------------------------------------------------------------
# losses: value and derivative with respect to the network output
# ---------------------------------------------------------------------------

LOSS_KINDS = ("frobenius", "kl", "kl-sym")

# ClassifierObjective's and the CLI's loss_eps; KL losses on one-hot labels need it > 0
LOSS_EPS = 1.0


def loss_value_grad(kind: str, X: np.ndarray, Y: np.ndarray, eps: float = 0.0):
    """Misfit D(X, Y) and dD/dX for the supported loss kinds.

    ``kl`` is the shifted Kullback-Leibler divergence
    sum (X+eps) log((X+eps)/(Y+eps)) + Y - X, ``kl-sym`` its symmetrised form
    sum log((X+eps)/(Y+eps)) (X - Y).  Both require all shifted entries to be
    positive; a point outside that domain raises ``NumericsError``.
    """
    if kind == "frobenius":
        d = X - Y
        return 0.5 * float(np.sum(d * d)), d
    if kind in ("kl", "kl-sym"):
        Xs = X + eps
        Ys = Y + eps
        if np.any(Xs <= 0.0) or np.any(Ys <= 0.0):
            raise NumericsError("shifted KL loss needs positive shifted entries; increase eps")
        logratio = np.log(Xs / Ys)
        if kind == "kl":
            value = float(np.sum(Xs * logratio + Y - X))
            return value, logratio
        value = float(np.sum(logratio * (X - Y)))
        return value, logratio + (X - Y) / Xs
    raise ValueError(f"unknown loss kind {kind!r}")


# ---------------------------------------------------------------------------
# network forward / backward
# ---------------------------------------------------------------------------

def _forward(As, D: np.ndarray, activation: Activation):
    """Network output, and each layer's (input, pre-activation) in the order of As."""
    T = np.asarray(D, dtype=np.float64)
    layers = []
    for A in reversed(As):
        A = np.asarray(A, dtype=np.float64)
        if A.shape[1] != T.shape[0]:
            raise ValueError(f"layer shape {A.shape} does not accept input of height {T.shape[0]}")
        Z = A @ T
        layers.append((T, Z))
        T = activation.value(Z)
    return T, layers[::-1]


def nn_forward(As, D: np.ndarray, activation: Activation) -> np.ndarray:
    """Network output rho_1(A_1 rho_2(A_2 ... rho_l(A_l D)))."""
    return _forward(As, D, activation)[0]


class ClassifierObjective(StackedObjective):
    """Stacked flattened-weights view of the classification energy on the
    training matrix ``D`` with one-hot labels ``Y``."""

    def __init__(self, D, Y, shapes, activation_kind="rectifier", beta=5.0, smooth_c=0.0,
                 loss_kind="frobenius", loss_eps=LOSS_EPS, eps=float(np.finfo(float).eps)):
        self.D = D
        self.Y = np.asarray(Y, dtype=np.float64)
        self.loss_kind = loss_kind
        self.loss_eps = loss_eps
        self.eps = eps
        self.activation = make_activation(activation_kind, beta, smooth_c)
        super().__init__(shapes)
        for (m, n), nxt in zip(self.shapes, self.shapes[1:]):
            if n != nxt[0]:
                raise ValueError(f"layer shapes {self.shapes} do not chain")
        if self.shapes[-1][1] != D.shape[0]:
            raise ValueError("innermost layer does not match the data height")
        if self.shapes[0][0] != Y.shape[0]:
            raise ValueError("outermost layer does not match the label height")
        if Y.shape[1:] != D.shape[1:]:
            raise ValueError(f"labels {Y.shape} and data {D.shape} differ in their columns")

    def value_and_grad(self, x, facts=None):
        """E and grad E at x by reverse-mode differentiation; given ``facts``,
        stores the network output on D there as the fact ``"output"``.

        E = loss(network(D), Y) + (eps/2) * sum_j ||A_j||_F^2.
        """
        As = [np.asarray(A, dtype=np.float64) for A in self.split(x)]
        T, layers = _forward(As, self.D, self.activation)
        value, G = loss_value_grad(self.loss_kind, T, self.Y, eps=self.loss_eps)
        grads = []
        innermost = len(As) - 1
        for j, (A, (T_in, Z)) in enumerate(zip(As, layers)):
            Gz = self.activation.backprop(Z, G)
            grads.append(Gz @ T_in.T + self.eps * A)
            if j < innermost:  # the innermost layer's input is D: no one reads its gradient
                G = A.T @ Gz
            value += 0.5 * self.eps * float(np.sum(A * A))
        if facts is not None:
            facts["output"] = T
        return value, self.pack(grads)


def init_weights(shapes, seed: int):
    """Seeded uniform weights scaled by 1/sqrt(fan-in); zero weights would be a
    dead point of the rectifier network."""
    rng = np.random.default_rng(seed)
    return [rng.uniform(-1.0, 1.0, size=(m, n)) / np.sqrt(n) for m, n in shapes]


# ---------------------------------------------------------------------------
# synthetic digit data (stand-in for handwritten-digit scans)
# ---------------------------------------------------------------------------

_GLYPHS = [
    "01110 10001 10001 10001 10001 10001 01110",
    "00100 01100 00100 00100 00100 00100 01110",
    "01110 10001 00001 00010 00100 01000 11111",
    "11110 00001 00001 01110 00001 00001 11110",
    "00010 00110 01010 10010 11111 00010 00010",
    "11111 10000 11110 00001 00001 10001 01110",
    "00110 01000 10000 11110 10001 10001 01110",
    "11111 00001 00010 00100 01000 01000 01000",
    "01110 10001 10001 01110 10001 10001 01110",
    "01110 10001 10001 01111 00001 00010 01100",
]


_DIGIT_BLOCK = 64  # samples whose draws and images synthetic_digits makes at once

# Lemire's method, as numpy's Generator.integers runs it on a 32-bit half-word
# x: the value is x * span >> 32, drawn again while x * span mod 2^32 is below
# (2^32 - span) % span.  Per sample: the digit (span 10), then the row and the
# column shift (span 5 each, offset -2).
_SPANS = np.array([10, 5, 5], dtype=np.uint64)
_REDRAW_BELOW = np.array([6, 1, 1], dtype=np.uint64)
_LOW32 = np.uint64(0xFFFFFFFF)
# rng.random() is (w >> 11) * 2^-53 of a raw word w, and the pixel noise is
# 0.05 times it: a power of two scales without rounding, so one multiply by
# the exact product gives the same bytes as the two
_NOISE_SCALE = 0.05 * 2.0 ** -53


def _glyph(digit: int) -> np.ndarray:
    rows = _GLYPHS[digit].split()
    return np.array([[float(ch) for ch in row] for row in rows])


def _draw_per_sample(rng, ints, amps, noise):
    """A block's draws by one Generator call each, in stream order.

    Per sample: ``ints`` holds the digit and the row and column shift plus 2,
    ``amps`` the amplitude and ``noise`` 0.05 times the pixel noise.
    """
    for j in range(len(amps)):
        ints[j] = rng.integers(0, 10), rng.integers(-2, 3) + 2, rng.integers(-2, 3) + 2
        amps[j] = rng.uniform(0.75, 1.0)
        rng.random(out=noise[j])  # the bytes of rng.uniform(size=(side, side))
    noise *= 0.05


@functools.lru_cache(maxsize=4)
def _stream_offsets(P: int):
    """Where ``_draw_block`` finds the draws of the first ``_DIGIT_BLOCK``
    samples at P pixels: each integer's word and the bit shift of its half
    in that word, and each amplitude's word."""
    j = np.arange(_DIGIT_BLOCK)
    odd = j % 2
    first = j // 2 * (2 * P + 5)  # first word of the sample's pair
    start = first + odd * (P + 2)  # the amplitude is word start + 2
    # half-word h is the low (h even) or high half of word h >> 1
    half = np.stack([2 * first + 3 * odd, 2 * start + 1 + odd, 2 * start + 2 + odd], axis=1)
    offsets = half >> 1, (32 * (half & 1)).astype(np.uint64), start + 2
    for a in offsets:
        a.flags.writeable = False
    return offsets


def _draw_block(rng, ints, amps, noise):
    """``_draw_per_sample``'s values and stream, decoded from raw PCG64 words,
    for at most ``_DIGIT_BLOCK`` samples.

    ``integers`` takes a 32-bit half-word: the low half of a new word, whose
    high half the bit generator keeps for the next such draw.  ``uniform`` and
    ``random`` take one word each.  With P = side^2, a pair of samples is
    2P + 5 words at fixed offsets, starting with no half-word kept::

        [digit, row | col, digit'] [amp] [P noise] [row', col'] [amp'] [P noise']

    An odd block ends after the first sample's noise.  Where Lemire's method
    would draw again (odds about 2e-9 per sample), or a half-word is kept at
    the start, the bit generator goes back to its state before the block and
    ``_draw_per_sample`` draws the block.
    """
    k, P = noise.shape
    stride = 2 * P + 5
    pairs = k // 2
    bitgen = rng.bit_generator
    saved = bitgen.state
    if not saved["has_uint32"]:
        words = bitgen.random_raw(pairs * stride + k % 2 * (P + 3))
        word, shift, amp = (a[:k] for a in _stream_offsets(P))
        m = (words[word] >> shift & _LOW32) * _SPANS
        if np.all(m & _LOW32 >= _REDRAW_BELOW):
            ints[:] = m >> 32
            words >>= 11
            amps[:] = 0.75 + 0.25 * (words[amp] * 2.0 ** -53)
            paired = words[:pairs * stride].reshape(pairs, stride)
            into = noise[:2 * pairs].reshape(pairs, 2, P)
            np.multiply(paired[:, 3:P + 3], _NOISE_SCALE, out=into[:, 0])
            np.multiply(paired[:, P + 5:], _NOISE_SCALE, out=into[:, 1])
            if k % 2:
                np.multiply(words[pairs * stride + 3:], _NOISE_SCALE, out=noise[-1])
            return
        bitgen.state = saved
    _draw_per_sample(rng, ints, amps, noise)


def synthetic_digits(seed: int, n: int, side: int = 28):
    """Seeded digit-image matrix D (side^2 x n, values in [0, 1]) and labels.

    Blocky 7x5 glyphs upsampled to side x side with random shifts, intensity
    scaling and pixel noise.  The output is a pure function of the arguments,
    and the order of the RNG draws is part of that contract: per sample the
    digit, the row shift, the column shift, the amplitude, then side x side
    noise, each by its own Generator call (``_draw_per_sample``).  Every
    synthetic classifier run depends on this stream.  Blocks of samples decode
    the same stream from raw words (``_draw_block``, which also states the
    word layout) and fall back to the per-sample calls where Lemire's method
    would draw again.
    """
    rng = np.random.default_rng(seed)
    scale = side // 7
    pad = side - 5 * scale
    glyphs = np.array([_glyph(d) for d in range(10)])
    glyphs = np.pad(glyphs.repeat(scale, axis=1).repeat(scale, axis=2),
                    ((0, 0), (0, side - 7 * scale), (pad // 2, pad - pad // 2)))
    # np.roll by s along an axis is the gather of roll_idx[s + 2] = (i - s) mod
    # side; rolled[d, :, s + 2] is glyph d with its columns rolled by s
    roll_idx = (np.arange(side) - np.arange(-2, 3)[:, None]) % side
    rolled = glyphs[:, :, roll_idx]
    D = np.zeros((side * side, n))
    labels = np.zeros(n, dtype=np.int64)
    # the image arithmetic runs once per block, which bounds its temporaries
    # to a few block x side^2 arrays
    held = min(n, _DIGIT_BLOCK)
    ints = np.empty((held, 3), dtype=np.int64)
    amps = np.empty(held)
    noise = np.empty((held, side * side))
    for start in range(0, n, _DIGIT_BLOCK):
        k = min(_DIGIT_BLOCK, n - start)
        _draw_block(rng, ints[:k], amps[:k], noise[:k])
        digit, row, col = ints[:k].T
        labels[start:start + k] = digit
        imgs = rolled[digit[:, None], roll_idx[row], col[:, None]]
        imgs *= amps[:k, None, None]
        imgs += noise[:k].reshape(k, side, side)
        np.clip(imgs, 0.0, 1.0, out=imgs)
        D[:, start:start + k] = imgs.reshape(k, side * side).T
    return D, labels


def one_hot(labels: np.ndarray, classes: int = 10) -> np.ndarray:
    Y = np.zeros((classes, len(labels)))
    Y[np.asarray(labels, dtype=int), np.arange(len(labels))] = 1.0
    return Y
