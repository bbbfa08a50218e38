"""Synthetic parallel MRI: recover an image and coil sensitivities from masked
k-space products.

E(u, b_1..b_s) = 0.5 * sum_j ||S F(u . b_j) - f_j||^2
                 + (eps/2) (||u||^2 + sum_j ||b_j||^2)

All variables are complex; the solver sees them as stacked real pairs
[Re u, Im u, Re b_1, Im b_1, ...], and gradients are taken with respect to
those real coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..solver import StackedObjective
from ..tensor_ops import dft2, idft2


def spiral_mask(N: int, turns: float = 4.0, samples_per_turn: int = 2400) -> np.ndarray:
    """Archimedean spiral on the cartesian k-space grid, DC at the array origin.

    The default geometry retains roughly a quarter of the grid at N = 64.  The
    output is a pure function of the arguments and draws no random numbers.
    Each sample point is rounded half to even and marks its 2x2 cell block.
    """
    centred = np.zeros((N, N), dtype=bool)
    thetas = np.linspace(0.0, 2.0 * np.pi * turns, int(samples_per_turn * turns))
    rmax = N / 2.0
    rad = rmax * thetas / (2.0 * np.pi * turns)
    y = np.round(N / 2.0 + rad * np.sin(thetas)).astype(np.int64)
    x = np.round(N / 2.0 + rad * np.cos(thetas)).astype(np.int64)
    for yy in (y, y + 1):
        for xx in (x, x + 1):
            inside = (0 <= yy) & (yy < N) & (0 <= xx) & (xx < N)
            centred[yy[inside], xx[inside]] = True
    return np.fft.ifftshift(centred).astype(np.float64)


MASK_KINDS = ("full", "spiral", "random")


def make_mask(kind: str, N: int, p: float = 0.5, seed: int = 0) -> np.ndarray:
    """Sampling mask of the requested kind: full, spiral, or random-p Bernoulli."""
    if kind == "full":
        return np.ones((N, N), dtype=np.float64)
    if kind == "spiral":
        return spiral_mask(N)
    if kind == "random":
        rng = np.random.default_rng(seed)
        return (rng.uniform(size=(N, N)) < p).astype(np.float64)
    raise ValueError(f"unknown mask kind {kind!r}")


def _smooth_field(rng: np.random.Generator, N: int) -> np.ndarray:
    """Low-frequency complex field built from the 5 x 5 lowest Fourier modes."""
    coef = np.zeros((N, N), dtype=np.complex128)
    for ky in range(-2, 3):
        for kx in range(-2, 3):
            c = rng.standard_normal() + 1j * rng.standard_normal()
            coef[ky % N, kx % N] = c / (1.0 + ky * ky + kx * kx)
    return idft2(coef) * N / np.sqrt(2.0)


@dataclass
class ParallelMriProblem:
    """Masked k-space data per coil plus the synthetic ground truth."""

    data: list
    mask: np.ndarray
    coils: int
    eps: float
    u_true: np.ndarray | None = None
    b_true: list = field(default_factory=list)


class ParallelMriObjective(StackedObjective):
    """Real-pair stacked view of the parallel MRI energy of (u, b_1, ..., b_s).

    Each complex array takes two consecutive real blocks, its real part then
    its imaginary part; ``split`` and ``pack`` take and give the complex list.
    """

    def __init__(self, data, mask, eps: float):
        self.mask = np.asarray(mask, dtype=np.float64)
        self.data = [np.asarray(f, dtype=np.complex128) for f in data]
        if any(f.shape != self.mask.shape for f in self.data):
            raise ValueError(f"every coil's data must have the mask shape {self.mask.shape}")
        self.eps = float(eps)
        super().__init__([self.mask.shape] * (2 * (1 + len(self.data))))

    def split(self, x):
        """Stacked real vector -> [u, b_1, ..., b_s] as complex images.

        Each part is copied in as it is: ``re + 1j * im`` would multiply, which
        makes an infinite ``im`` a NaN real part and a ``-0.0`` real part ``+0.0``.
        """
        parts = super().split(x)
        out = []
        for re, im in zip(parts[::2], parts[1::2]):
            z = np.empty(re.shape, dtype=np.complex128)
            z.real, z.imag = re, im
            out.append(z)
        return out

    def pack(self, arrays):
        return super().pack([p for a in arrays for p in (np.real(a), np.imag(a))])

    def value_and_grad(self, x, facts=None):
        """E and its real-pair gradient: the complex gradient g of each variable
        is packed as (dE/dRe, dE/dIm) = (Re g, Im g).

        A finite x whose products overflow can leave inf - inf = NaN in a
        residual; E is then +inf, which backtracking rejects like any other
        overflow.  At a non-finite x a NaN E stays NaN.
        """
        u, *bs = self.split(x)
        mask, eps = self.mask, self.eps
        value = 0.0
        grad_u = eps * u
        grad_bs = []
        for b, f in zip(bs, self.data):
            r = mask * dft2(u * b) - f
            value += 0.5 * float(np.sum(np.abs(r) ** 2))
            back = idft2(mask * r)
            grad_u += np.conj(b) * back
            grad_bs.append(np.conj(u) * back + eps * b)
        value += 0.5 * eps * (float(np.sum(np.abs(u) ** 2))
                              + sum(float(np.sum(np.abs(b) ** 2)) for b in bs))
        if math.isnan(value) and np.isfinite(x).all():
            value = math.inf
        return value, self.pack([grad_u, *grad_bs])


def make_synthetic_mri(seed: int, N: int, coils: int = 2, mask_kind: str = "spiral",
                       p: float = 0.5, eps: float = np.finfo(float).eps) -> ParallelMriProblem:
    """Seeded phantom with smooth coil maps and exact (noise-free) masked data.

    The phantom is a piecewise-smooth disk arrangement; coil sensitivities are
    low-frequency complex fields.  Data f_j = S F(u_true * b_j_true).
    """
    rng = np.random.default_rng(seed)
    ii, jj = np.mgrid[0:N, 0:N]
    u = np.zeros((N, N), dtype=np.complex128)
    for _ in range(3):
        cy, cx = rng.integers(N // 4, 3 * N // 4, size=2)
        rad = rng.integers(max(2, N // 8), max(3, N // 3))
        level = rng.uniform(0.4, 1.0)
        u += level * ((ii - cy) ** 2 + (jj - cx) ** 2 <= rad ** 2)
    bs = [_smooth_field(rng, N) for _ in range(coils)]
    mask = make_mask(mask_kind, N, p=p, seed=seed)
    data = [mask * dft2(u * b) for b in bs]
    return ParallelMriProblem(data=data, mask=mask, coils=coils, eps=float(eps),
                              u_true=u, b_true=bs)
