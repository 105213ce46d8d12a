"""Seeded synthetic marker trials for the benchmark.

This generalises the fixture generator ``tests/data/make_trial.py``: the
same parallel stance and two-tone pelvic sway, written with the same
formatting, plus three knobs the fixture holds fixed:

* ``duration_s``  -- trial length at ``RATE_HZ`` frames per second
* ``dropout``     -- share of frames that miss exactly one marker (its three
                     cells blank); the frames are chosen without replacement,
                     so every seed drops the same number of frames
* ``foot_drift_m`` -- every second (``HOLD_FRAMES``) each foot moves to a new pose,
                     shifted by up to this much along x and y and turned by up
                     to ``foot_drift_m / 0.10`` radians about its sole centre

The seed picks the phase of the sway, the dropped frames and markers, and
the foot poses.  ``seed=None`` keeps the fixture's phase, so
``make_trial(30.0)`` reproduces ``tests/data/trial_parallel_sway.csv`` byte
for byte.

The generator also returns what it placed -- the CoM of every frame, which
frames are complete, and the foot markers of every hold block -- so the
benchmark can check the program's output against the generator's own truth.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

ORIGIN = (0.35, 0.20)
RATE_HZ = 100
# Frames between two foot poses when the feet drift.
HOLD_FRAMES = RATE_HZ

STATIC_FEET = {
    "LHEE": (0.225, 0.35, 0.02),
    "RHEE": (0.225, 0.05, 0.02),
    "LMT1": (0.475, 0.30, 0.01),
    "LMT5": (0.475, 0.40, 0.01),
    "RMT1": (0.475, 0.10, 0.01),
    "RMT5": (0.475, 0.00, 0.01),
}

PELVIS_OFFSETS = {
    "LASI": (0.10, 0.09),
    "RASI": (0.10, -0.09),
    "LPSI": (-0.10, 0.07),
    "RPSI": (-0.10, -0.07),
}

LABELS = ("LASI", "RASI", "LPSI", "RPSI", "LHEE", "RHEE", "LMT1", "LMT5", "RMT1", "RMT5")
HEADER = "time," + ",".join(f"{label}_{axis}" for label in LABELS for axis in "xyz")

# Periods of the two sway tones are incommensurate; any phase in one cycle
# of the slowest tone gives a fresh but equally hard trajectory.
_SLOWEST_PERIOD_S = 1.0 / 0.23


@dataclass(frozen=True)
class Trial:
    """A generated trial and the truth the generator placed in it."""

    text: str
    com: list[tuple[float, float]]
    complete: list[bool]
    feet: list[dict[str, tuple[float, float, float]]]
    block_of: list[int]

    @property
    def n_frames(self) -> int:
        return len(self.complete)

    @property
    def n_complete(self) -> int:
        return sum(self.complete)

    def head(self, n_frames: int) -> Trial:
        """The trial's first ``n_frames`` frames, as if recorded alone."""
        lines = self.text.split("\n", n_frames + 1)
        return Trial(
            text="\n".join(lines[: n_frames + 1]) + "\n",
            com=self.com[:n_frames],
            complete=self.complete[:n_frames],
            feet=self.feet,
            block_of=self.block_of[:n_frames],
        )


def sway(t: float) -> tuple[float, float]:
    x = 0.112 * math.sin(2.0 * math.pi * 0.23 * t + 0.7)
    y = 0.187 * math.sin(2.0 * math.pi * 0.31 * t) + 0.021 * math.sin(
        2.0 * math.pi * 1.10 * t + 1.3
    )
    return ORIGIN[0] + x, ORIGIN[1] + y


def _moved_feet(rng: random.Random, drift: float) -> dict[str, tuple[float, float, float]]:
    feet = {}
    for side in "LR":
        labels = [f"{side}HEE", f"{side}MT1", f"{side}MT5"]
        cx = sum(STATIC_FEET[lb][0] for lb in labels) / 3.0
        cy = sum(STATIC_FEET[lb][1] for lb in labels) / 3.0
        dx = rng.uniform(-drift, drift)
        dy = rng.uniform(-drift, drift)
        turn = rng.uniform(-drift / 0.10, drift / 0.10)
        c, s = math.cos(turn), math.sin(turn)
        for lb in labels:
            x, y, z = STATIC_FEET[lb]
            rx, ry = x - cx, y - cy
            feet[lb] = (cx + c * rx - s * ry + dx, cy + s * rx + c * ry + dy, z)
    return feet


def make_trial(
    duration_s: float,
    seed: int | None = None,
    dropout: float = 0.0,
    foot_drift_m: float = 0.0,
) -> Trial:
    """Generate one trial; see the module docstring for the parameters."""
    n = int(duration_s * RATE_HZ)
    rng = random.Random(seed)
    phase = 0.0 if seed is None else rng.uniform(0.0, _SLOWEST_PERIOD_S)

    n_blocks = (n + HOLD_FRAMES - 1) // HOLD_FRAMES
    if foot_drift_m > 0.0:
        feet = [_moved_feet(rng, foot_drift_m) for _ in range(n_blocks)]
    else:
        feet = [dict(STATIC_FEET)]
    block_of = [min(k // HOLD_FRAMES, len(feet) - 1) for k in range(n)]

    dropped = dict.fromkeys(rng.sample(range(n), round(dropout * n)))
    for k in sorted(dropped):
        dropped[k] = rng.choice(LABELS)

    lines = [HEADER]
    com = []
    for k in range(n):
        t = k / RATE_HZ
        cx, cy = sway(t + phase)
        cz = 0.95 + 0.03 * math.sin(2.0 * math.pi * 0.4 * (t + phase))
        com.append((cx, cy))
        block = feet[block_of[k]]
        row = [f"{t:.2f}"]
        for label in LABELS:
            if dropped.get(k) == label:
                row += ["", "", ""]
                continue
            if label in PELVIS_OFFSETS:
                ox, oy = PELVIS_OFFSETS[label]
                xyz = (cx + ox, cy + oy, cz)
            else:
                xyz = block[label]
            row += [f"{v:.12g}" for v in xyz]
        lines.append(",".join(row))
    return Trial(
        text="\n".join(lines) + "\n",
        com=com,
        complete=[k not in dropped for k in range(n)],
        feet=feet,
        block_of=block_of,
    )
