"""Multi-frame stacking and additive fusion of branch features.

The learned per-layer encoders are out of scope; this module pins down the
tensor contracts (shapes, layer ids, frame ordering) so the fusion
arithmetic is testable in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

DEFAULT_NUM_FRAMES = 8


class FusionError(ValueError):
    pass


@dataclass(frozen=True)
class FeatureTensor:
    values: np.ndarray  # (channel, spatial...)
    layer_id: int = 1

    def __post_init__(self):
        if self.layer_id not in (1, 2, 3):
            raise FusionError(f"layer_id must be 1, 2 or 3, got {self.layer_id}")
        if not np.all(np.isfinite(self.values)):
            raise FusionError("feature values must be finite")


@dataclass(frozen=True)
class MultiFrameTensor:
    values: np.ndarray  # (frame, channel, spatial...)


def stack_frames(
    features: Sequence[FeatureTensor],
    count: int = DEFAULT_NUM_FRAMES,
) -> MultiFrameTensor:
    """Stack per-frame features along a new leading frame axis.

    Requires exactly ``count`` tensors of identical shape in acquisition
    order; values are copied bit-exactly.
    """
    if count < 1:
        raise FusionError("count must be >= 1")
    if len(features) != count:
        raise FusionError(f"expected {count} frames, got {len(features)}")
    shape = features[0].values.shape
    for i, f in enumerate(features):
        if f.values.shape != shape:
            raise FusionError(
                f"frame {i} has shape {f.values.shape}, expected {shape}"
            )
    return MultiFrameTensor(values=np.stack([f.values for f in features]))


def fuse_add(f1: FeatureTensor, f2: FeatureTensor) -> FeatureTensor:
    """Element-wise sum of same-layer features from the two branches."""
    if f1.values.shape != f2.values.shape:
        raise FusionError(
            f"shape mismatch: {f1.values.shape} vs {f2.values.shape}"
        )
    if f1.layer_id != f2.layer_id:
        raise FusionError(f"layer mismatch: {f1.layer_id} vs {f2.layer_id}")
    return FeatureTensor(values=f1.values + f2.values, layer_id=f1.layer_id)

