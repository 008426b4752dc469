"""Pose keypoint evaluation: pixel-wise binary cross-entropy, object
keypoint similarity (OKS), and AP summaries.
"""

from __future__ import annotations

import math
import reprlib
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import load_json, read_json_object, read_key_values

JOINT_NAMES = (
    "head", "neck",
    "left_shoulder", "right_shoulder",
    "left_elbow", "right_elbow",
    "left_wrist", "right_wrist",
    "left_hip", "right_hip",
    "left_knee", "right_knee",
    "left_ankle", "right_ankle",
)
NUM_JOINTS = len(JOINT_NAMES)

# COCO per-joint factors mapped onto this skeleton: head from the nose
# value, neck from the shoulder value; the rest carry over directly.
DEFAULT_SIGMAS = (
    0.026, 0.079,
    0.079, 0.079,
    0.072, 0.072,
    0.062, 0.062,
    0.107, 0.107,
    0.087, 0.087,
    0.089, 0.089,
)

BCE_EPS = 1e-7
OKS_THRESHOLDS = tuple((50 + 5 * i) / 100.0 for i in range(10))


class PoseError(ValueError):
    pass


@dataclass(frozen=True)
class KeypointSet:
    """14 named joints in heatmap pixel coordinates plus person area."""

    xy: np.ndarray          # (14, 2)
    visibility: np.ndarray  # (14,) of {0, 1}
    area: float             # bounding-box area in pixel^2
    frame: int | None = None  # the frame number its file gave, if any

    @staticmethod
    def from_json(doc, where: str = "frame") -> "KeypointSet":
        """Read one keypoint frame: each of ``JOINT_NAMES`` once, with ``v`` 0 or 1,
        and an area > 0 if a joint is visible. Errors name fields after ``where``."""
        frame = read_json_object(doc, _FRAME_KEYS, where, PoseError, required=("joints", "area"))
        joints = {}
        for index, joint in enumerate(frame["joints"]):
            name = joint.get("name") if isinstance(joint, dict) else None
            path = f"{where} joint {name if name in JOINT_NAMES else index}"
            joint = read_json_object(joint, _JOINT_KEYS, path, PoseError, required=_JOINT_KEYS)
            if name not in JOINT_NAMES or name in joints:
                known = "repeated" if name in joints else "unknown"
                raise PoseError(f"{path} name: {known} joint {reprlib.repr(joint['name'])}")
            if joint["v"] not in (0, 1):
                raise PoseError(f"{path} v: expected 0 or 1, got {joint['v']}")
            joints[name] = joint
        missing = [n for n in JOINT_NAMES if n not in joints]
        if missing:
            raise PoseError(f"{where}: missing joints {missing}")
        if frame["area"] <= 0 and any(j["v"] for j in joints.values()):
            raise PoseError(f"{where} area: must be > 0 when a joint is visible")
        return KeypointSet(
            xy=np.array([[joints[n]["x"], joints[n]["y"]] for n in JOINT_NAMES], dtype=float),
            visibility=np.array([joints[n]["v"] for n in JOINT_NAMES]),
            area=float(frame["area"]),
            frame=frame.get("frame"),
        )

    def to_json(self) -> dict:
        """The frame as ``from_json`` reads it; ``frame`` is left out when unnumbered."""
        return {
            **({} if self.frame is None else {"frame": self.frame}),
            "joints": [
                {"name": n, "x": float(x), "y": float(y), "v": int(v)}
                for n, (x, y), v in zip(JOINT_NAMES, self.xy, self.visibility)
            ],
            "area": float(self.area),
        }


# keypoint frame and joint keys and their types; "area" is the KeypointSet field
_FRAME_KEYS = {"joints": list, "area": typing.get_type_hints(KeypointSet)["area"], "frame": int}
_JOINT_KEYS = {"name": str, "x": float, "y": float, "v": int}


@dataclass(frozen=True)
class OksParams:
    sigmas: tuple[float, ...] = DEFAULT_SIGMAS

    def __post_init__(self):
        if len(self.sigmas) != NUM_JOINTS or not all(0 < s < math.inf for s in self.sigmas):
            raise PoseError(f"sigmas must be {NUM_JOINTS} finite values > 0")


def bce_loss(pred: np.ndarray, target: np.ndarray) -> float:
    """Pixel-wise binary cross-entropy summed over all cells.

    Predictions are clamped to [eps, 1 - eps] to keep the logs finite.
    """
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise PoseError(f"shape mismatch: {pred.shape} vs {target.shape}")
    p = np.clip(pred, BCE_EPS, 1.0 - BCE_EPS)
    return float(-(target * np.log(p) + (1.0 - target) * np.log(1.0 - p)).sum())


def oks(pred: KeypointSet, gt: KeypointSet, params: OksParams = OksParams()) -> float:
    """Object keypoint similarity over the ground truth's visible joints."""
    vis = gt.visibility.astype(bool)
    n_vis = int(vis.sum())
    if n_vis == 0:
        raise PoseError("undefined OKS: no visible ground-truth joint")
    # a distance past float range is inf, and its joint's kernel term exactly 0
    with np.errstate(over="ignore"):
        d2 = ((pred.xy - gt.xy) ** 2).sum(axis=1)
    s2 = gt.area  # S = sqrt(area), so S^2 = area
    sig2 = np.array(params.sigmas) ** 2
    kernel = np.exp(-d2 / (2.0 * s2 * sig2))
    return float(kernel[vis].sum() / n_vis)


def ap_summary(oks_values) -> dict:
    """AP over the ten OKS thresholds 0.50 .. 0.95.

    Single-person-per-frame convention: each frame contributes one detection,
    so AP at a threshold reduces to the fraction of frames passing it.
    """
    values = np.asarray(list(oks_values), dtype=float)
    if values.size == 0:
        raise PoseError("ap_summary needs at least one OKS value")
    table = {t: float((values >= t).mean()) for t in OKS_THRESHOLDS}
    return {
        "AP": float(np.mean(list(table.values()))),
        "AP50": table[0.50],
        "AP75": table[0.75],
        "per_threshold": {f"{t:.2f}": v for t, v in table.items()},
        "num_frames": int(values.size),
    }


def load_keypoint_frames(path: str | Path) -> list[KeypointSet]:
    """Read a JSON list of keypoint frames (or a single frame object)."""
    doc = load_json(Path(path).read_text(), str(path), PoseError)
    if isinstance(doc, dict):
        doc = [doc]
    if not isinstance(doc, list):
        raise PoseError(f"{path}: expected a keypoint frame or a list of frames")
    return [KeypointSet.from_json(frame, f"{path} frame {i}") for i, frame in enumerate(doc)]


def load_oks_params(path: str | Path) -> OksParams:
    """Read sigmas from a ``sigma_<joint> = value`` file in the radar-config
    line format; joints it does not name keep their ``DEFAULT_SIGMAS`` value."""
    sigmas = read_key_values(
        Path(path).read_text(), {f"sigma_{n}": float for n in JOINT_NAMES}, PoseError
    )
    return OksParams(sigmas=tuple(
        sigmas.get(f"sigma_{n}", d) for n, d in zip(JOINT_NAMES, DEFAULT_SIGMAS)
    ))


def oks_per_frame(
    preds: list[KeypointSet], gts: list[KeypointSet], params: OksParams = OksParams()
) -> list[float]:
    if len(preds) != len(gts):
        raise PoseError(f"frame count mismatch: {len(preds)} predictions vs {len(gts)} truths")
    for i, (p, g) in enumerate(zip(preds, gts)):
        if None not in (p.frame, g.frame) and p.frame != g.frame:
            raise PoseError(f"frame at position {i}: prediction is frame {p.frame}, "
                            f"ground truth is frame {g.frame}")
    return [oks(p, g, params) for p, g in zip(preds, gts)]
