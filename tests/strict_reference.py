"""The scalar strict-mode formulas that ``geometry._strict_points`` replaced,
kept as the reference the array kernel is compared with.

``strict_point`` evaluates the piecewise formulas at one direction angle in
[0, 2*pi), branch by branch in the math module: the arc of the cap on the
angle's side while its abscissa stays within that side's span, otherwise the
back or front edge line.
"""

import math

from saddlebos import Point2
from saddlebos.geometry import BosParams


def strict_point(params: BosParams, phi: float) -> Point2:
    if phi < math.pi:
        y = params.reach_left * math.cos(phi)
        x_arc = params.reach_left * math.sin(phi)
        limit = abs(params.span_left)
    else:
        y = params.reach_right * math.cos(phi)
        x_arc = params.reach_right * math.sin(phi)
        limit = abs(params.span_right)
    if abs(x_arc) <= limit:
        x = x_arc
    elif math.pi / 2.0 <= phi < 3.0 * math.pi / 2.0:
        x = params.slope_back * y - params.span_right
    else:
        x = params.slope_front * y + params.span_right
    return Point2(x, y)
