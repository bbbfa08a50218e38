"""IDX file format reader (big-endian magic 2051/2049 headers, raw bytes).

The standard container for handwritten-digit image and label sets.
"""

from __future__ import annotations

import struct

import numpy as np

IMAGES_MAGIC = 2051
LABELS_MAGIC = 2049


def read_idx_images(path) -> np.ndarray:
    """Read an IDX image file -> uint8 array of shape (count, rows, cols)."""
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) < 16:
            raise ValueError("truncated IDX image header")
        magic, count, rows, cols = struct.unpack(">iiii", header)
        if magic != IMAGES_MAGIC:
            raise ValueError(f"bad magic {magic} for an IDX image file")
        data = np.frombuffer(fh.read(count * rows * cols), dtype=np.uint8)
    if data.size != count * rows * cols:
        raise ValueError("truncated IDX image file")
    return data.reshape(count, rows, cols)


def read_idx_labels(path) -> np.ndarray:
    """Read an IDX label file -> uint8 array of shape (count,)."""
    with open(path, "rb") as fh:
        header = fh.read(8)
        if len(header) < 8:
            raise ValueError("truncated IDX label header")
        magic, count = struct.unpack(">ii", header)
        if magic != LABELS_MAGIC:
            raise ValueError(f"bad magic {magic} for an IDX label file")
        data = np.frombuffer(fh.read(count), dtype=np.uint8)
    if data.size != count:
        raise ValueError("truncated IDX label file")
    return data


def load_digit_set(images_path, labels_path, limit: int | None = None):
    """Load an IDX image/label pair as (D, labels) with D of shape (rows*cols, n).

    Pixel values are scaled to [0, 1]; columns are the flattened images.
    """
    imgs = read_idx_images(images_path)
    labels = read_idx_labels(labels_path)
    if imgs.shape[0] != labels.shape[0]:
        raise ValueError("image and label counts differ")
    if limit is not None:
        imgs = imgs[:limit]
        labels = labels[:limit]
    D = imgs.reshape(imgs.shape[0], -1).T.astype(np.float64) / 255.0
    return D, labels.astype(np.int64)
