"""Seeded two-body capture generator for the ``capture-csv`` workload.

Writes text captures in the layout ``skelfill ingest`` parses (frame count;
per frame a body count; per body a metadata line, a joint count and one
12-field joint line per joint), named like NTU files so the action id
``A0nn`` becomes the label.  It uses only the standard library and numpy
and shares no code with ``skelfill.synth``.

The class motions are fixed, like the actions of a capture dataset; the
seed draws the performances: position, timing, noise.  Each capture holds
two bodies.  The passive body moves less than the
active one and is written first, so ingest has to rank bodies by motion
energy to put the active body in slot 0.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

JOINTS = 25

# Standing pose of the 25-joint layout, metres (x right, y up, z depth).
_POSE = np.array(
    [
        (0.00, 0.00, 0.00), (0.00, 0.27, 0.01), (0.00, 0.52, 0.01), (0.00, 0.68, 0.02),
        (-0.17, 0.46, 0.00), (-0.29, 0.24, 0.01), (-0.37, 0.03, 0.02), (-0.40, -0.04, 0.02),
        (0.17, 0.46, 0.00), (0.29, 0.24, 0.01), (0.37, 0.03, 0.02), (0.40, -0.04, 0.02),
        (-0.08, -0.06, 0.00), (-0.09, -0.46, 0.01), (-0.10, -0.86, 0.02), (-0.11, -0.92, 0.13),
        (0.08, -0.06, 0.00), (0.09, -0.46, 0.01), (0.10, -0.86, 0.02), (0.11, -0.92, 0.13),
        (0.00, 0.42, 0.01), (-0.43, -0.10, 0.03), (-0.41, -0.01, 0.06),
        (0.43, -0.10, 0.03), (0.41, -0.01, 0.06),
    ],
    dtype=np.float64,
)


def _body_track(rng, frames, freq, amp, phase, origin, activity, lag):
    """[frames, JOINTS, 3] trajectory of one body, ``lag`` radians late."""
    t = np.arange(frames, dtype=np.float64)[:, None, None] / frames
    wave = np.sin(2.0 * np.pi * freq * t + phase[None] + lag + rng.normal(0.0, 0.02))
    track = origin + _POSE[None] + activity * amp[None] * wave
    return track + rng.normal(0.0, 0.003, size=track.shape)


def _body_text(body_id: str, joints: np.ndarray) -> list[str]:
    lines = [f"{body_id} 0 1 1 0 0 0 -0.2 0.1 2", str(JOINTS)]
    for x, y, z in joints:
        # x y z, then depth/colour pixels and orientation (ignored), tracking state
        lines.append(f"{x:.6f} {y:.6f} {z:.6f} 250.5 200.5 960.5 540.5 0.5 0.1 0.8 0.2 2")
    return lines


def write_captures(
    out_dir: str | Path, seed: int, classes: int, per_class: int, frames: int
) -> list[Path]:
    """Write ``classes * per_class`` captures of ``frames`` frames each and
    return their paths.  The same arguments always give the same bytes."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for cls in range(classes):
        cls_rng = np.random.default_rng([7, cls])  # a fixed action vocabulary
        freq = cls_rng.uniform(0.5, 2.5)
        amp = cls_rng.uniform(0.02, 0.3, size=(JOINTS, 3))
        phase = cls_rng.uniform(0.0, 2.0 * np.pi, size=(JOINTS, 3))
        for item in range(per_class):
            rng = np.random.default_rng([seed, 13, cls, item])
            active_origin = np.array([rng.uniform(-0.5, 0.5), 0.0, rng.uniform(2.5, 3.5)])
            passive_origin = active_origin + np.array([0.9, 0.0, 0.3])
            # performances of one action are spread evenly in timing, so the
            # neighbours a capture finds do not hinge on the seed
            lag = 0.2 * (item / per_class - 0.5)
            active = _body_track(rng, frames, freq, amp, phase, active_origin, 1.0, lag)
            passive = _body_track(rng, frames, freq * 0.5, amp, phase, passive_origin, 0.2, lag)
            lines = [str(frames)]
            for f in range(frames):
                lines.append("2")
                lines += _body_text(f"72057594037{cls:03d}{item:03d}1", passive[f])
                lines += _body_text(f"72057594037{cls:03d}{item:03d}0", active[f])
            path = out / f"S001C001P{item + 1:03d}R001A{cls + 1:03d}.skeleton"
            path.write_text("\n".join(lines) + "\n")
            paths.append(path)
    return paths
