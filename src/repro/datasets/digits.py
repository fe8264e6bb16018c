"""Procedural MNIST substitute: stroke-rendered handwritten-style digits.

The execution environment has no network access and no MNIST copy on disk,
so this module synthesises a drop-in replacement: 10 digit classes drawn as
stroke skeletons, rasterised with random affine distortion, stroke-thickness
variation, control-point jitter, blur and pixel noise.  A small CNN learns
the result to ~99% accuracy, matching MNIST's role in the paper (an "easy"
dataset where the protected model is near-perfect and adversarial examples
must therefore be crafted, not found).

Images are single-channel, ``size``×``size`` (28 by default), in ``[0, 1]``
before the caller shifts them to the paper's ``[-0.5, 0.5]`` range.
"""

from __future__ import annotations

import numpy as np

__all__ = ["render_digit", "generate_digits", "DIGIT_STROKES"]


def _arc(cx: float, cy: float, rx: float, ry: float, start: float, stop: float, points: int = 14) -> np.ndarray:
    """Polyline approximation of an elliptical arc (angles in degrees)."""
    theta = np.radians(np.linspace(start, stop, points))
    return np.stack([cx + rx * np.cos(theta), cy + ry * np.sin(theta)], axis=1)


def _line(x0: float, y0: float, x1: float, y1: float) -> np.ndarray:
    return np.array([[x0, y0], [x1, y1]])


def _build_strokes() -> dict[int, list[np.ndarray]]:
    """Stroke skeletons for digits 0-9 in a unit box (x right, y down).

    Angles follow the screen convention: 0° points right, 90° points *down*.
    """
    return {
        0: [_arc(0.5, 0.5, 0.26, 0.36, 0, 360, 28)],
        1: [_line(0.38, 0.28, 0.54, 0.14), _line(0.54, 0.14, 0.54, 0.86)],
        2: [
            _arc(0.5, 0.32, 0.24, 0.18, 160, 380, 16),
            _line(0.72, 0.38, 0.28, 0.84),
            _line(0.28, 0.84, 0.76, 0.84),
        ],
        3: [
            _arc(0.47, 0.32, 0.22, 0.17, 150, 390, 16),
            _arc(0.47, 0.67, 0.24, 0.19, 330, 570, 16),
        ],
        4: [
            _line(0.62, 0.14, 0.24, 0.6),
            _line(0.24, 0.6, 0.8, 0.6),
            _line(0.62, 0.14, 0.62, 0.88),
        ],
        5: [
            _line(0.72, 0.15, 0.32, 0.15),
            _line(0.32, 0.15, 0.3, 0.45),
            _arc(0.48, 0.63, 0.24, 0.22, 250, 480, 18),
        ],
        6: [
            np.array([[0.68, 0.13], [0.5, 0.36], [0.33, 0.6], [0.29, 0.72]]),
            _arc(0.48, 0.67, 0.21, 0.2, 0, 360, 22),
        ],
        7: [_line(0.26, 0.16, 0.76, 0.16), _line(0.76, 0.16, 0.42, 0.88)],
        8: [
            _arc(0.5, 0.32, 0.2, 0.17, 0, 360, 20),
            _arc(0.5, 0.68, 0.23, 0.19, 0, 360, 20),
        ],
        9: [
            _arc(0.52, 0.35, 0.22, 0.21, 0, 360, 22),
            _line(0.74, 0.35, 0.62, 0.88),
        ],
    }


DIGIT_STROKES: dict[int, list[np.ndarray]] = _build_strokes()


def _random_affine(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Random rotation/scale/shear/translation around the glyph centre."""
    angle = np.radians(rng.uniform(-14, 14))
    scale_x = rng.uniform(0.82, 1.08)
    scale_y = rng.uniform(0.82, 1.08)
    shear = rng.uniform(-0.18, 0.18)
    rotation = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    shear_mat = np.array([[1.0, shear], [0.0, 1.0]])
    scale_mat = np.diag([scale_x, scale_y])
    matrix = rotation @ shear_mat @ scale_mat
    offset = rng.uniform(-0.06, 0.06, size=2)
    return matrix, offset


def _segment_distance_field(grid: np.ndarray, p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
    """Distance from every grid point to the segment ``p0``-``p1``.

    ``grid`` has shape (H*W, 2).
    """
    direction = p1 - p0
    length_sq = float(direction @ direction)
    if length_sq < 1e-12:
        return np.linalg.norm(grid - p0, axis=1)
    t = np.clip((grid - p0) @ direction / length_sq, 0.0, 1.0)
    projection = p0 + t[:, None] * direction
    return np.linalg.norm(grid - projection, axis=1)


def render_digit(
    digit: int,
    rng: np.random.Generator,
    size: int = 28,
    supersample: int = 2,
    noise: float = 0.04,
) -> np.ndarray:
    """Render one randomised digit image with values in ``[0, 1]``.

    Parameters
    ----------
    digit:
        Class label 0-9.
    size:
        Output resolution (``size`` × ``size``).
    supersample:
        Rasterisation happens at ``size * supersample`` and is averaged down,
        giving anti-aliased strokes like scanned handwriting.
    noise:
        Standard deviation of additive Gaussian pixel noise.
    """
    from scipy import ndimage  # deferred: only a cache miss renders digits

    if digit not in DIGIT_STROKES:
        raise ValueError(f"digit must be 0-9, got {digit}")
    matrix, offset = _random_affine(rng)
    centre = np.array([0.5, 0.5])
    thickness = rng.uniform(0.035, 0.065)
    softness = thickness * 0.5

    hi = size * supersample
    axis = (np.arange(hi) + 0.5) / hi
    gx, gy = np.meshgrid(axis, axis)
    grid = np.stack([gx.ravel(), gy.ravel()], axis=1)

    field = np.full(hi * hi, np.inf)
    for stroke in DIGIT_STROKES[digit]:
        jitter = rng.normal(scale=0.012, size=stroke.shape)
        points = (stroke + jitter - centre) @ matrix.T + centre + offset
        for p0, p1 in zip(points[:-1], points[1:]):
            np.minimum(field, _segment_distance_field(grid, p0, p1), out=field)

    intensity = 1.0 / (1.0 + np.exp((field - thickness) / softness))
    image = intensity.reshape(hi, hi)
    if supersample > 1:
        image = image.reshape(size, supersample, size, supersample).mean(axis=(1, 3))
    image = ndimage.gaussian_filter(image, sigma=rng.uniform(0.3, 0.7))
    image = image + rng.normal(scale=noise, size=image.shape)
    return np.clip(image, 0.0, 1.0)


def generate_digits(
    count: int,
    rng: np.random.Generator,
    size: int = 28,
    noise: float = 0.04,
) -> tuple[np.ndarray, np.ndarray]:
    """Generate ``count`` digit images with balanced random labels.

    Returns
    -------
    (images, labels):
        ``images`` has shape ``(count, 1, size, size)`` in ``[0, 1]``.
    """
    labels = rng.integers(0, 10, size=count)
    images = np.empty((count, 1, size, size))
    for i, label in enumerate(labels):
        images[i, 0] = render_digit(int(label), rng, size=size, noise=noise)
    return images, labels
