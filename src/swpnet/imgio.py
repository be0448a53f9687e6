"""Binary portable pixmap (P6) and graymap (P5) readers and writers.

Both formats are 8-bit, dependency-free, and byte-exact, which keeps dataset
generation and heatmap export bit-reproducible.
"""

from __future__ import annotations

import os

import numpy as np


class ImageFormatError(ValueError):
    pass


def write_ppm(path, image: np.ndarray) -> None:
    """Write an [H, W, 3] uint8 array as binary PPM."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3 or image.dtype != np.uint8:
        raise ImageFormatError(f"write_ppm wants [H, W, 3] uint8, got {image.shape} {image.dtype}")
    h, w = image.shape[:2]
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(image.tobytes())


def write_pgm(path, image: np.ndarray) -> None:
    """Write an [H, W] uint8 array as binary PGM."""
    image = np.asarray(image)
    if image.ndim != 2 or image.dtype != np.uint8:
        raise ImageFormatError(f"write_pgm wants [H, W] uint8, got {image.shape} {image.dtype}")
    h, w = image.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(image.tobytes())


def _read_header(f, magic: bytes, path):
    where = os.fspath(path)
    if f.read(2) != magic:
        raise ImageFormatError(f"bad magic in {where}, expected {magic.decode()}")
    fields = []
    while len(fields) < 3:
        line = f.readline()
        if not line:
            raise ImageFormatError(f"truncated header in {where}")
        for tok in line.split(b"#", 1)[0].split():
            try:
                fields.append(int(tok))
            except ValueError:
                raise ImageFormatError(f"non-integer header field {tok!r} in {where}") from None
    w, h, maxval = fields[:3]
    if w < 1 or h < 1:
        raise ImageFormatError(f"image size {w}x{h} in {where}: width and height must be at least 1")
    if maxval != 255:
        raise ImageFormatError(f"only 8-bit images supported, maxval={maxval} in {where}")
    return w, h


def read_ppm(path) -> np.ndarray:
    with open(path, "rb") as f:
        w, h = _read_header(f, b"P6", path)
        raw = f.read(w * h * 3)
    if len(raw) != w * h * 3:
        raise ImageFormatError(f"truncated pixel data in {os.fspath(path)}")
    return np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3).copy()


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as f:
        w, h = _read_header(f, b"P5", path)
        raw = f.read(w * h)
    if len(raw) != w * h:
        raise ImageFormatError(f"truncated pixel data in {os.fspath(path)}")
    return np.frombuffer(raw, dtype=np.uint8).reshape(h, w).copy()
