"""Seeded random polygon generators for test corpora and experiments."""
from __future__ import annotations

import math

import numpy as np

from .geometry import Polygon, GeometryError


def random_simple_polygon(rng: np.random.Generator, n_sides: int, *,
                          avoid_right_angles: bool = True,
                          max_tries: int = 800) -> Polygon:
    """Star-shaped polygon with n_sides vertices on random rays.

    Rejects shapes with vertex angles within 0.06 of pi/2 or 3 pi/2 (when
    asked), near-straight vertices, or very sharp corners, so the
    vertex-expansion machinery stays well posed.
    """
    for _ in range(max_tries):
        phi = np.sort(rng.uniform(0, 2 * math.pi, n_sides))
        if np.min(np.diff(np.concatenate([phi, [phi[0] + 2 * math.pi]]))) < 2 * math.pi / (4 * n_sides):
            continue
        r = rng.uniform(0.75, 1.25, n_sides)
        verts = np.column_stack([r * np.cos(phi), r * np.sin(phi)])
        try:
            P = Polygon(verts)
        except GeometryError:
            continue
        ang = P.angles
        if np.any(ang < 0.35) or np.any(np.abs(ang - math.pi) < 0.08):
            continue
        if avoid_right_angles and np.any(
                np.min(np.abs(ang[:, None] - np.array([[math.pi / 2, 3 * math.pi / 2]])), axis=1)
                < 0.06):
            continue
        return P
    raise RuntimeError(f"no valid {n_sides}-gon found in {max_tries} tries")
