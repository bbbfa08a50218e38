"""Dense-array primitives used by every problem driver.

Periodic 2-D convolution and its centre-anchored kernel embedding, the
forward-difference image gradient and its negative adjoint (divergence), and
orthonormal DFT/DCT pairs.  All functions are pure: inputs are never mutated.
The deconvolution energy (``BlindDeconvObjective.value_and_grad``) takes its
three spectra, of the image, the embedded kernel and the residual, once each,
and forms both adjoints from them.

scipy serves only the DCT, which only MRI's coil-map regularizer
(``WeightedL1Dct``) takes, so ``dct2`` and ``idct2`` import ``scipy.fft`` at
their first call and deconvolution, classifier and quadratic runs never load
it.  Loading it costs about 0.25 s and 27 MB of peak RSS: in a fresh
interpreter ``import linbreg.experiment, linbreg.cli`` takes 0.11 s and
29.5 MB without it, 0.36 s and 56 MB with it (Python 3.11, numpy 2.4,
scipy 1.17).
"""

from __future__ import annotations

import numpy as np


def as_tensor(data) -> np.ndarray:
    """Convert user input to a dense float array and validate it.

    Rejects complex and non-finite entries.  Finite-ness is only enforced
    here, at the API boundary; internal operations trust their inputs.
    """
    arr = np.asarray(data)
    if np.iscomplexobj(arr):
        raise ValueError("complex input where a real array was expected")
    arr = arr.astype(np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("input contains NaN or Inf entries")
    return arr


def embed_kernel(h: np.ndarray, image_shape) -> np.ndarray:
    """Zero-pad a kernel to image size with its centre anchored at index (0, 0)."""
    H, W = image_shape
    kh, kw = h.shape
    if kh > H or kw > W:
        raise ValueError(f"kernel {h.shape} larger than image {image_shape}")
    pad = np.zeros((H, W), dtype=np.float64)
    pad[:kh, :kw] = h
    # anchor at floor(k/2) in each dimension
    return np.roll(pad, (-(kh // 2), -(kw // 2)), axis=(0, 1))


def conv2d_periodic(u: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Circular convolution of image ``u`` with kernel ``h`` (centre-anchored).

    out[i, j] = sum_{a,b} h[a, b] * u[(i - a + kh//2) % H, (j - b + kw//2) % W]
    """
    u = np.asarray(u, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    pad = embed_kernel(h, u.shape)
    return np.real(np.fft.ifft2(np.fft.fft2(u) * np.fft.fft2(pad)))


def check_image(u: np.ndarray) -> np.ndarray:
    """Return ``u`` if it is a 2-D image with at least 2 pixels, else raise ValueError."""
    if u.ndim != 2 or u.size < 2:
        raise ValueError(f"need a 2-D image with at least 2 pixels, got shape {u.shape}")
    return u


def grad2d_forward(u: np.ndarray) -> np.ndarray:
    """Forward-difference gradient with replicate (Neumann) boundary.

    Returns an array of shape (2, H, W); channel 0 holds row differences,
    channel 1 column differences.  The trailing row/column of each channel is
    zero.  Degenerate 1x1 (or empty) images are rejected; 1xN and Nx1 are
    allowed, the size-one axis simply contributes no differences.
    """
    u = check_image(np.asarray(u, dtype=np.float64))
    H, W = u.shape
    g = np.zeros((2, H, W), dtype=np.float64)
    g[0, : H - 1, :] = u[1:, :] - u[: H - 1, :]
    g[1, :, : W - 1] = u[:, 1:] - u[:, : W - 1]
    return g


def div2d(g: np.ndarray) -> np.ndarray:
    """Negative adjoint of ``grad2d_forward``: <grad u, g> = -<u, div2d(g)>."""
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 3 or g.shape[0] != 2:
        raise ValueError(f"expected gradient field of shape (2, H, W), got {g.shape}")
    _, H, W = g.shape
    d = np.zeros((H, W), dtype=np.float64)
    d[: H - 1, :] += g[0, : H - 1, :]
    d[1:, :] -= g[0, : H - 1, :]
    d[:, : W - 1] += g[1, :, : W - 1]
    d[:, 1:] -= g[1, :, : W - 1]
    return d


def total_variation(u: np.ndarray) -> float:
    """Isotropic total variation: the 1-norm of the pointwise Euclidean gradient length."""
    g = grad2d_forward(u)
    return float(np.sum(np.sqrt(g[0] ** 2 + g[1] ** 2)))


def dct2(u: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D discrete cosine transform (type II)."""
    import scipy.fft

    return scipy.fft.dctn(np.asarray(u, dtype=np.float64), type=2, norm="ortho")


def idct2(c: np.ndarray) -> np.ndarray:
    """Inverse of ``dct2``."""
    import scipy.fft

    return scipy.fft.idctn(np.asarray(c, dtype=np.float64), type=2, norm="ortho")


def dft2(u: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D discrete Fourier transform (isometry: ||dft2(u)|| = ||u||)."""
    u = np.asarray(u)
    return np.fft.fft2(u) / np.sqrt(u.shape[0] * u.shape[1])


def idft2(c: np.ndarray) -> np.ndarray:
    """Inverse of ``dft2``."""
    c = np.asarray(c)
    return np.fft.ifft2(c) * np.sqrt(c.shape[0] * c.shape[1])
