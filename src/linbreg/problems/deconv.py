"""Blind deconvolution: E(u, h) = 0.5 * ||u * h - f||^2 with periodic boundary.

The simplex constraint on the kernel and any total-variation regularisation of
the image live in the Bregman function, not in the energy.  The solver sees a
single stacked variable [u.ravel(), h.ravel()].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..solver import SmoothObjective
from ..tensor_ops import (
    as_tensor,
    conv2d_periodic,
    conv2d_periodic_adjoint,
    kernel_gradient,
)


@dataclass
class BlindDeconvProblem:
    """Observed image, kernel support, and (for synthetic data) the ground truth."""

    f: np.ndarray
    kernel_shape: tuple
    u_true: np.ndarray | None = None
    h_true: np.ndarray | None = None
    sigma: float = 0.0


class BlindDeconvObjective(SmoothObjective):
    """Stacked-variable view of the blind-deconvolution energy.

    The gradient is only locally Lipschitz (the energy is bilinear in (u, h)),
    so ``lipschitz`` stays None and monitors log without asserting.
    """

    lipschitz = None

    def __init__(self, f, kernel_shape):
        self.f = as_tensor(f)
        self.image_shape = self.f.shape
        self.kernel_shape = tuple(kernel_shape)
        self.n_image = int(np.prod(self.image_shape))
        self.n_kernel = int(np.prod(self.kernel_shape))
        self.size = self.n_image + self.n_kernel

    def split(self, x):
        """Stacked vector -> (image, kernel)."""
        x = np.ravel(x)
        if x.size != self.size:
            raise ValueError(f"expected {self.size} entries, got {x.size}")
        u = x[: self.n_image].reshape(self.image_shape)
        h = x[self.n_image:].reshape(self.kernel_shape)
        return u, h

    def pack(self, u, h):
        return np.concatenate([np.ravel(u), np.ravel(h)])

    def value_and_grad(self, x, facts=None):
        u, h = self.split(x)
        r = conv2d_periodic(u, h) - self.f
        gu = conv2d_periodic_adjoint(r, h)
        gh = kernel_gradient(u, r, self.kernel_shape)
        return 0.5 * float(np.sum(r * r)), self.pack(gu, gh)


_KERNEL_CHUNK = 1 << 18  # kernel cells evaluated at once by motion_kernel


def motion_kernel(shape, angle: float) -> np.ndarray:
    """Line-segment blur kernel on the given support, normalised to sum 1.

    The segment passes through the kernel centre at the given angle; cells get
    weights from the time the line spends near them (Gaussian cross-profile).
    The output is a pure function of the arguments and draws no random
    numbers; the profiles of the 64 * max(shape) sample points are summed in
    sample order, which fixes its bytes.
    """
    kh, kw = shape
    ch, cw = (kh - 1) / 2.0, (kw - 1) / 2.0
    length = max(kh, kw)
    ts = np.linspace(-0.5, 0.5, 64 * length)
    ys = ch + ts * length * np.sin(angle)
    xs = cw + ts * length * np.cos(angle)
    ii, jj = np.mgrid[0:kh, 0:kw]
    # add.reduce over axis 0 of [k, p_lo, p_lo+1, ...] sums in that order, as a
    # k += p loop would; the chunks bound the stacked array at _KERNEL_CHUNK cells
    k = np.zeros(shape)
    step = max(1, _KERNEL_CHUNK // (kh * kw))
    for lo in range(0, ts.size, step):
        y, x = ys[lo:lo + step, None, None], xs[lo:lo + step, None, None]
        profiles = np.exp(-((ii - y) ** 2 + (jj - x) ** 2) / 0.5)
        k = np.add.reduce(np.concatenate([k[None], profiles]), axis=0)
    total = k.sum()
    if total <= 0:
        raise ValueError("degenerate kernel support")
    return k / total


def piecewise_constant_image(rng: np.random.Generator, H: int, W: int) -> np.ndarray:
    """Random blocky test image in [0, 1]: six overlapping constant rectangles and disks."""
    u = np.zeros((H, W))
    ii, jj = np.mgrid[0:H, 0:W]
    for _ in range(6):
        level = rng.uniform(0.2, 1.0)
        if rng.uniform() < 0.5:
            r0, r1 = np.sort(rng.integers(0, H, size=2))
            c0, c1 = np.sort(rng.integers(0, W, size=2))
            u[r0:r1 + 1, c0:c1 + 1] = level
        else:
            cy, cx = rng.integers(0, H), rng.integers(0, W)
            rad = rng.integers(2, max(3, min(H, W) // 3))
            u[(ii - cy) ** 2 + (jj - cx) ** 2 <= rad ** 2] = level
    return u


def discrepancy_eta(sigma: float, H: int, W: int) -> float:
    """Early-stopping threshold eta = 1.2 * sigma^2 / (2 * sqrt(H*W))."""
    return 1.2 * sigma ** 2 / (2.0 * np.sqrt(H * W))


def make_synthetic_deconv(seed: int, H: int, W: int, kernel_shape=(3, 5),
                          sigma: float = 0.0) -> BlindDeconvProblem:
    """Seeded blind-deconvolution instance: blocky image, motion blur, Gaussian noise.

    The ground-truth image is mean-subtracted and normalised to unit 2-norm
    before blurring (the standard preprocessing for this problem; it also
    balances the curvatures of the image and kernel blocks, since the kernel
    block sees a Lipschitz constant of max |DFT(u)|^2 <= ||u||^2 while a
    simplex-constrained kernel gives the image block a constant of at most 1).
    With sigma = 0 the data lies exactly in the range of the forward model and
    E(u_true, h_true) = 0.
    """
    rng = np.random.default_rng(seed)
    u = piecewise_constant_image(rng, H, W)
    u = u - u.mean()
    nrm = float(np.linalg.norm(u))
    if nrm > 0:
        u = u / nrm
    h = motion_kernel(kernel_shape, angle=rng.uniform(0.1, np.pi - 0.1))
    f = conv2d_periodic(u, h)
    if sigma > 0:
        f = f + sigma * rng.standard_normal(f.shape)
    return BlindDeconvProblem(f=f, kernel_shape=tuple(kernel_shape),
                              u_true=u, h_true=h, sigma=float(sigma))
