"""Pose keypoint evaluation: pixel-wise binary cross-entropy, object
keypoint similarity (OKS), and AP summaries.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import read_key_values

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

    def __post_init__(self):
        if self.xy.shape != (NUM_JOINTS, 2):
            raise PoseError(f"expected {NUM_JOINTS} joints, got shape {self.xy.shape}")
        if self.visibility.shape != (NUM_JOINTS,):
            raise PoseError("visibility must have one flag per joint")
        if not np.all(np.isin(self.visibility, (0, 1))):
            raise PoseError("visibility flags must be 0 or 1")
        if not (np.isfinite(self.xy).all() and math.isfinite(self.area)):
            raise PoseError("joint coordinates and area must be finite")
        if np.any(self.visibility) and self.area <= 0:
            raise PoseError("area must be > 0 when any joint is visible")

    @staticmethod
    def from_json(doc: dict) -> "KeypointSet":
        if not isinstance(doc, dict) or not isinstance(doc.get("joints"), list):
            raise PoseError("a keypoint frame must be an object with a 'joints' list")
        if not all(isinstance(j, dict) and isinstance(j.get("name"), str) for j in doc["joints"]):
            raise PoseError("every joint must be an object with a string 'name'")
        joints = {j["name"]: j for j in doc["joints"]}
        missing = set(JOINT_NAMES) - joints.keys()
        if missing:
            raise PoseError(f"missing joints: {sorted(missing)}")
        try:
            xy = np.array([[joints[n]["x"], joints[n]["y"]] for n in JOINT_NAMES], dtype=float)
            vis = np.array([int(joints[n]["v"]) for n in JOINT_NAMES])
            area = float(doc["area"])
        except (KeyError, TypeError, ValueError) as exc:
            raise PoseError(f"bad keypoint frame: {type(exc).__name__}: {exc}") from exc
        return KeypointSet(xy=xy, visibility=vis, area=area)

    def to_json(self, frame: int = 0) -> dict:
        return {
            "frame": frame,
            "joints": [
                {"name": n, "x": float(x), "y": float(y), "v": int(v)}
                for n, (x, y), v in zip(JOINT_NAMES, self.xy, self.visibility)
            ],
            "area": float(self.area),
        }


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
    doc = json.loads(Path(path).read_text())
    if isinstance(doc, dict):
        doc = [doc]
    if not isinstance(doc, list):
        raise PoseError(f"{path}: expected a keypoint frame or a list of frames")
    return [KeypointSet.from_json(frame) for frame in doc]


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
    return [oks(p, g, params) for p, g in zip(preds, gts)]
