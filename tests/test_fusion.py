import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from radarpose.fusion import (
    DEFAULT_NUM_FRAMES,
    FeatureTensor,
    FusionError,
    fuse_add,
    stack_frames,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
small_tensors = arrays(np.float64, (3, 4, 4), elements=finite)


def ft(values, layer=1):
    return FeatureTensor(values=np.asarray(values, dtype=float), layer_id=layer)


def test_stack_singleton():
    t = ft(np.arange(6.0).reshape(2, 3))
    out = stack_frames([t], count=1)
    np.testing.assert_array_equal(out.values[0], t.values)


def test_default_frame_count_is_eight():
    assert DEFAULT_NUM_FRAMES == 8
    frames = [ft(np.full((2, 2), i)) for i in range(8)]
    assert stack_frames(frames).values.shape == (8, 2, 2)


def test_stack_slices_recover_inputs_bit_exact(rng):
    a = ft(rng.standard_normal((2, 2)))
    b = ft(rng.standard_normal((2, 2)))
    out = stack_frames([a, b], count=2)
    assert out.values[0].tobytes() == a.values.tobytes()
    assert out.values[1].tobytes() == b.values.tobytes()


def test_stack_rejects_wrong_count():
    with pytest.raises(FusionError, match="expected 3"):
        stack_frames([ft(np.zeros((2, 2)))] * 2, count=3)


def test_stack_rejects_shape_mismatch():
    with pytest.raises(FusionError, match="frame 1"):
        stack_frames([ft(np.zeros((2, 2))), ft(np.zeros((2, 3)))], count=2)


def test_fuse_zero_identity(rng):
    a = ft(rng.standard_normal((3, 4, 4)))
    z = ft(np.zeros((3, 4, 4)))
    out = fuse_add(a, z)
    np.testing.assert_array_equal(out.values, a.values)


@settings(max_examples=30, deadline=None)
@given(a=small_tensors, b=small_tensors)
def test_fuse_commutative(a, b):
    lhs = fuse_add(ft(a), ft(b)).values
    rhs = fuse_add(ft(b), ft(a)).values
    np.testing.assert_array_equal(lhs, rhs)


@settings(max_examples=30, deadline=None)
@given(a=small_tensors, b=small_tensors, c=small_tensors)
def test_fuse_associative(a, b, c):
    lhs = fuse_add(fuse_add(ft(a), ft(b)), ft(c)).values
    rhs = fuse_add(ft(a), fuse_add(ft(b), ft(c))).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_fuse_matches_loop_sum(rng):
    a, b = rng.standard_normal((3, 4, 4)), rng.standard_normal((3, 4, 4))
    out = fuse_add(ft(a), ft(b)).values
    for idx in np.ndindex(3, 4, 4):
        assert out[idx] == a[idx] + b[idx]


def test_fuse_shape_and_layer_contract(rng):
    a = ft(rng.standard_normal((3, 4, 4)))
    with pytest.raises(FusionError, match="shape"):
        fuse_add(a, ft(np.zeros((3, 4, 5))))
    with pytest.raises(FusionError, match="layer"):
        fuse_add(a, ft(np.zeros((3, 4, 4)), layer=2))
    assert fuse_add(a, a).values.shape == a.values.shape


def test_feature_tensor_validation():
    with pytest.raises(FusionError, match="layer_id"):
        FeatureTensor(values=np.zeros((2, 2)), layer_id=4)
    with pytest.raises(FusionError, match="finite"):
        FeatureTensor(values=np.array([[np.inf]]), layer_id=1)

