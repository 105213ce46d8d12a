"""The per-point even-odd classifier that ``oracle.classify_points`` replaced,
kept as the reference the oracle's array kernel is compared with.

``point_in_polygon`` here decides one point at a time: On when the point
lies within ``tol`` of an edge, by the nearest point on each edge, and
otherwise inside when a ray towards +x crosses an odd number of the edges
that straddle the point's y.
"""

import numpy as np

from saddlebos import Containment


def distance_to_edges(verts: np.ndarray, p: np.ndarray) -> float:
    a = verts
    b = np.roll(verts, -1, axis=0)
    ab = b - a
    t = np.clip(((p - a) * ab).sum(axis=1) / (ab * ab).sum(axis=1), 0.0, 1.0)
    proj = a + t[:, None] * ab
    return float(np.hypot(p[0] - proj[:, 0], p[1] - proj[:, 1]).min())


def even_odd_inside(verts: np.ndarray, p: np.ndarray) -> bool:
    x1, y1 = verts[:, 0], verts[:, 1]
    nxt = np.roll(verts, -1, axis=0)
    x2, y2 = nxt[:, 0], nxt[:, 1]
    straddle = (y1 > p[1]) != (y2 > p[1])
    if not straddle.any():
        return False
    xc = x1[straddle] + (p[1] - y1[straddle]) * (x2[straddle] - x1[straddle]) / (
        y2[straddle] - y1[straddle]
    )
    return int(np.count_nonzero(p[0] < xc)) % 2 == 1


def point_in_polygon(polygon, p, tol: float = 1e-9) -> Containment:
    pt = p.as_array()
    if distance_to_edges(polygon.vertices, pt) <= tol:
        return Containment.ON
    return Containment.INSIDE if even_odd_inside(polygon.vertices, pt) else Containment.OUTSIDE
