"""IDX file format reader (big-endian magic 2051/2049 headers, raw bytes).

The standard container for handwritten-digit image and label sets.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

IMAGES_MAGIC = 2051
LABELS_MAGIC = 2049


def _read_idx(path, magic: int, what: str, ndim: int) -> np.ndarray:
    """Read an IDX file of ``ndim`` dimensions whose magic must be ``magic``."""
    with open(path, "rb") as fh:
        header_size = 4 + 4 * ndim
        header = fh.read(header_size)
        if len(header) < header_size:
            raise ValueError(f"truncated IDX {what} header")
        found, *shape = struct.unpack(">i" + "i" * ndim, header)
        if found != magic:
            raise ValueError(f"bad magic {found} for an IDX {what} file")
        # math.prod of Python ints: three int32 sizes can overflow np.prod's
        # int64.  A size the file cannot hold is truncation, not a read that
        # large (which would raise OverflowError or MemoryError).
        size = math.prod(shape)
        if not 0 <= size <= os.fstat(fh.fileno()).st_size - header_size:
            raise ValueError(f"truncated IDX {what} file")
        data = np.frombuffer(fh.read(size), dtype=np.uint8)
    return data.reshape(shape)


def read_idx_images(path) -> np.ndarray:
    """Read an IDX image file -> uint8 array of shape (count, rows, cols)."""
    return _read_idx(path, IMAGES_MAGIC, "image", 3)


def read_idx_labels(path) -> np.ndarray:
    """Read an IDX label file -> uint8 array of shape (count,)."""
    return _read_idx(path, LABELS_MAGIC, "label", 1)


def load_digit_set(images_path, labels_path, limit: int | None = None):
    """Load an IDX image/label pair as (D, labels) with D of shape (rows*cols, n).

    Pixel values are scaled to [0, 1]; columns are the flattened images.
    """
    imgs = read_idx_images(images_path)
    labels = read_idx_labels(labels_path)
    if imgs.shape[0] != labels.shape[0]:
        raise ValueError("image and label counts differ")
    if imgs.shape[1] * imgs.shape[2] == 0:
        raise ValueError(f"the images have no pixels ({imgs.shape[1]} x {imgs.shape[2]})")
    if limit is not None:
        imgs = imgs[:limit]
        labels = labels[:limit]
    D = imgs.reshape(imgs.shape[0], -1).T.astype(np.float64) / 255.0
    return D, labels.astype(np.int64)
