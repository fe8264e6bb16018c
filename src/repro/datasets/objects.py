"""Procedural CIFAR-10 substitute: textured colour objects on noisy scenes.

Ten object classes (disk, square, triangle, cross, ring, horizontal bars,
vertical bars, checkerboard, blob, crescent) are rendered at random
position/scale/rotation/colour over low-frequency textured backgrounds with
pixel noise.  The class is carried by *shape*, not colour, and the clutter
is tuned so a small CNN reaches roughly CIFAR-level accuracy (~75-85%)
rather than MNIST-level — reproducing the paper's "harder dataset" regime
where the region-based radius must be tiny (r = 0.02) and correction is less
reliable.

Images are 3-channel, ``size``×``size`` (32 by default), in ``[0, 1]``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["render_object", "generate_objects", "CLASS_NAMES"]

CLASS_NAMES = (
    "disk",
    "square",
    "triangle",
    "cross",
    "ring",
    "hbars",
    "vbars",
    "checker",
    "blob",
    "crescent",
)


def _low_freq_field(rng: np.random.Generator, size: int, channels: int, cells: int = 4) -> np.ndarray:
    """Smooth random field: coarse noise upsampled to ``size``."""
    from scipy import ndimage  # deferred: only a cache miss renders objects

    coarse = rng.random((channels, cells, cells))
    zoom = size / cells
    return np.stack([ndimage.zoom(c, zoom, order=1, mode="nearest") for c in coarse])


def _coords(size: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, float]:
    """Rotated, centred coordinate grids for the object, plus its scale."""
    axis = (np.arange(size) + 0.5) / size
    gx, gy = np.meshgrid(axis, axis)
    cx, cy = rng.uniform(0.38, 0.62, size=2)
    # Rotation is kept modest: with a full 2*pi range the oriented classes
    # (hbars/vbars, checker) would collapse into identical distributions.
    angle = rng.uniform(-0.35, 0.35)
    cos_a, sin_a = np.cos(angle), np.sin(angle)
    dx, dy = gx - cx, gy - cy
    rx = cos_a * dx - sin_a * dy
    ry = sin_a * dx + cos_a * dy
    scale = rng.uniform(0.2, 0.3)
    return rx / scale, ry / scale, scale


def _shape_mask(label: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """Soft [0,1] mask of the class shape on a ``size``×``size`` grid."""
    rx, ry, _ = _coords(size, rng)
    r = np.sqrt(rx**2 + ry**2)
    soft = 0.08

    def smooth(signed_distance: np.ndarray) -> np.ndarray:
        # Negative distance = inside.
        return 1.0 / (1.0 + np.exp(signed_distance / soft))

    name = CLASS_NAMES[label]
    if name == "disk":
        return smooth(r - 1.0)
    if name == "square":
        return smooth(np.maximum(np.abs(rx), np.abs(ry)) - 0.9)
    if name == "triangle":
        # Equilateral-ish triangle via three half-plane constraints.
        d = np.maximum.reduce([ry - 0.7, -0.87 * rx - 0.5 * ry - 0.6, 0.87 * rx - 0.5 * ry - 0.6])
        return smooth(d)
    if name == "cross":
        bar_h = np.maximum(np.abs(rx) - 1.0, np.abs(ry) - 0.35)
        bar_v = np.maximum(np.abs(ry) - 1.0, np.abs(rx) - 0.35)
        return smooth(np.minimum(bar_h, bar_v))
    if name == "ring":
        return smooth(np.abs(r - 0.85) - 0.3)
    if name == "hbars":
        stripes = np.cos(ry * np.pi * 2.2)
        return smooth(-(stripes - 0.2) * 1.2) * smooth(r - 1.15)
    if name == "vbars":
        stripes = np.cos(rx * np.pi * 2.2)
        return smooth(-(stripes - 0.2) * 1.2) * smooth(r - 1.15)
    if name == "checker":
        pattern = np.cos(rx * np.pi * 1.8) * np.cos(ry * np.pi * 1.8)
        return smooth(-(pattern - 0.1) * 1.4) * smooth(np.maximum(np.abs(rx), np.abs(ry)) - 1.0)
    if name == "blob":
        # Lumpy blob: unit disk warped by angular harmonics.
        theta = np.arctan2(ry, rx)
        k1, k2 = rng.integers(2, 5, size=2)
        p1, p2 = rng.uniform(0, 2 * np.pi, size=2)
        radius = 0.8 + 0.25 * np.cos(k1 * theta + p1) + 0.15 * np.cos(k2 * theta + p2)
        return smooth(r - radius)
    if name == "crescent":
        outer = smooth(r - 1.0)
        hole = np.sqrt((rx - 0.55) ** 2 + ry**2)
        return outer * smooth(-(hole - 0.75))
    raise ValueError(f"unknown label {label}")


def render_object(label: int, rng: np.random.Generator, size: int = 32, noise: float = 0.06) -> np.ndarray:
    """Render one randomised object image, shape ``(3, size, size)`` in [0, 1]."""
    if not 0 <= label < len(CLASS_NAMES):
        raise ValueError(f"label must be 0-{len(CLASS_NAMES) - 1}, got {label}")
    background = 0.25 + 0.5 * _low_freq_field(rng, size, 3, cells=rng.integers(3, 6))
    mask = _shape_mask(label, rng, size)

    colour = rng.uniform(0.0, 1.0, size=3)
    # Guarantee some contrast against the local background mean.
    bg_mean = background.mean(axis=(1, 2))
    too_close = np.abs(colour - bg_mean) < 0.25
    colour[too_close] = np.where(bg_mean[too_close] > 0.5, bg_mean[too_close] - 0.35, bg_mean[too_close] + 0.35)
    texture = 0.85 + 0.3 * _low_freq_field(rng, size, 3, cells=4)
    foreground = np.clip(colour[:, None, None] * texture, 0.0, 1.0)

    image = background * (1.0 - mask) + foreground * mask
    image = image + rng.normal(scale=noise, size=image.shape)
    return np.clip(image, 0.0, 1.0)


def generate_objects(
    count: int,
    rng: np.random.Generator,
    size: int = 32,
    noise: float = 0.06,
) -> tuple[np.ndarray, np.ndarray]:
    """Generate ``count`` object images with random labels.

    Returns
    -------
    (images, labels):
        ``images`` has shape ``(count, 3, size, size)`` in ``[0, 1]``.
    """
    labels = rng.integers(0, len(CLASS_NAMES), size=count)
    images = np.empty((count, 3, size, size))
    for i, label in enumerate(labels):
        images[i] = render_object(int(label), rng, size=size, noise=noise)
    return images, labels
