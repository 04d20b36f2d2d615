"""Structured report serialization and SVG emission.

Reports are plain JSON with sorted keys so runs are byte-stable given the
same config; each records the schema version, the package version
and the ``DEFAULTS`` in force.  SVG scenes show the polygon outline, traced
nodal graphs, critical points colored by index, and per-vertex annotation
badges.
"""
from __future__ import annotations

import json
import math

import numpy as np

from . import __version__
from .config import DEFAULTS

SCHEMA_VERSION = "1.0"


def to_jsonable(obj):
    """A report value as JSON data: None, bool, int and str as they are, a
    float as itself (its repr when not finite), dicts, lists and tuples item
    by item.  Any other type raises TypeError, so no value reaches a report
    as a silent string."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    raise TypeError(f"not a report value: {type(obj).__name__}")


def write_report(path, payload: dict):
    payload = dict(payload)
    payload.setdefault("schema_version", SCHEMA_VERSION)
    payload.setdefault("version", __version__)
    payload.setdefault("defaults", DEFAULTS.to_dict())
    with open(path, "w") as f:
        json.dump(to_jsonable(payload), f, indent=1, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------

_INDEX_COLORS = {1: "#c62828", -1: "#1565c0", 0: "#6a1b9a", None: "#757575"}


class SvgScene:
    def __init__(self, polygon):
        self.P = polygon
        v = polygon.vertices
        lo, hi = v.min(axis=0), v.max(axis=0)
        span = float(max(hi - lo))
        pad = 0.06 * span
        self.lo = lo - pad
        self.scale = 640 / (span + 2 * pad)
        self.size_x = int((hi[0] - lo[0] + 2 * pad) * self.scale) + 1
        self.size_y = int((hi[1] - lo[1] + 2 * pad) * self.scale) + 1
        self.items: list[str] = []
        self._outline()

    def _xy(self, p):
        x = (p[0] - self.lo[0]) * self.scale
        y = self.size_y - (p[1] - self.lo[1]) * self.scale
        return f"{x:.2f},{y:.2f}"

    def _outline(self):
        pts = " ".join(self._xy(p) for p in self.P.vertices)
        self.items.append(f'<polygon points="{pts}" fill="#fafafa" '
                          f'stroke="#212121" stroke-width="1.5"/>')

    def add_polyline(self, pts, width=1.6, dashed=False):
        if len(pts) < 2:
            return
        s = " ".join(self._xy(p) for p in pts)
        dash = ' stroke-dasharray="6,4"' if dashed else ""
        self.items.append(f'<polyline points="{s}" fill="none" stroke="#2e7d32" '
                          f'stroke-width="{width}"{dash}/>')

    def add_point(self, p, *, index=None, radius=4.5):
        color = _INDEX_COLORS.get(index, "#757575")
        x, y = self._xy(p).split(",")
        self.items.append(f'<circle cx="{x}" cy="{y}" r="{radius}" fill="{color}" '
                          f'stroke="white" stroke-width="1"/>')

    def add_badge(self, p, text):
        x, y = self._xy(p).split(",")
        self.items.append(f'<text x="{float(x) + 8:.1f}" y="{float(y) - 8:.1f}" '
                          f'font-size="12" font-family="monospace" fill="#424242">'
                          f'{text}</text>')

    def add_nodal_graph(self, graph):
        for _, _, pl in graph.edges:
            self.add_polyline(pl)
        for i in graph.zero_sides:
            a = self.P.vertices[i]
            b = self.P.vertices[(i + 1) % self.P.n]
            self.add_polyline(np.array([a, b]), dashed=True, width=2.2)
        for n in graph.degree_one_nodes():
            self.add_point(n.point, index=None, radius=3.0)

    def add_critical_set(self, cset):
        for cp in cset.points:
            self.add_point(cp.location, index=cp.index)
            label = "?" if cp.index is None else f"{cp.index:+d}"
            self.add_badge(cp.location, label)

    def tostring(self) -> str:
        body = "\n".join(self.items)
        return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.size_x}" '
                f'height="{self.size_y}" viewBox="0 0 {self.size_x} {self.size_y}">\n'
                f"{body}\n</svg>\n")

    def write(self, path):
        with open(path, "w") as f:
            f.write(self.tostring())
