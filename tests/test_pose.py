import json

import numpy as np
import pytest

from oracles import ap_thresholds_loops, bce_loops
from radarpose.pose import (
    DEFAULT_SIGMAS,
    JOINT_NAMES,
    NUM_JOINTS,
    KeypointSet,
    OksParams,
    PoseError,
    ap_summary,
    bce_loss,
    load_keypoint_frames,
    oks,
)


def make_kp(xy=None, vis=None, area=100.0):
    if xy is None:
        xy = np.tile(np.array([[10.0, 12.0]]), (NUM_JOINTS, 1)) + np.arange(NUM_JOINTS)[:, None]
    if vis is None:
        vis = np.ones(NUM_JOINTS, dtype=int)
    return KeypointSet(xy=np.asarray(xy, dtype=float), visibility=np.asarray(vis), area=area)


# ---------------------------------------------------------------- bce

def test_bce_perfect_prediction_near_zero():
    g = (np.arange(12).reshape(2, 2, 3) % 2).astype(float)
    loss = bce_loss(g, g)
    assert 0.0 <= loss <= g.size * -np.log(1.0 - 1e-7) + 1e-9


def test_bce_single_cell_half():
    assert bce_loss(np.array([0.5]), np.array([1.0])) == pytest.approx(np.log(2.0), abs=1e-12)


def test_bce_matches_loop_oracle(rng):
    pred = rng.random((2, 3, 3))
    target = rng.random((2, 3, 3))
    assert bce_loss(pred, target) == pytest.approx(bce_loops(pred, target), abs=1e-12)


def test_bce_shape_mismatch():
    with pytest.raises(PoseError, match="shape"):
        bce_loss(np.zeros((2, 2)), np.zeros((2, 3)))


def test_bce_nonnegative_and_minimized_at_target(rng):
    g = rng.uniform(0.2, 0.8, size=(2, 4, 4))
    base = bce_loss(g, g)
    assert base >= 0.0
    for _ in range(5):
        perturbed = np.clip(g + rng.normal(scale=0.05, size=g.shape), 1e-6, 1 - 1e-6)
        assert bce_loss(perturbed, g) >= base


# ---------------------------------------------------------------- oks

def test_oks_perfect_match():
    kp = make_kp()
    assert oks(kp, kp) == 1.0


def test_oks_single_joint_e_inverse():
    vis = np.zeros(NUM_JOINTS, dtype=int)
    vis[0] = 1
    area = 100.0
    sigma = DEFAULT_SIGMAS[0]
    d = np.sqrt(2.0 * area * sigma ** 2)
    gt = make_kp(vis=vis, area=area)
    pred_xy = gt.xy.copy()
    pred_xy[0, 0] += d
    pred = make_kp(xy=pred_xy, vis=vis, area=area)
    assert oks(pred, gt) == pytest.approx(np.exp(-1.0), abs=1e-6)


def test_oks_two_joints_one_exact():
    vis = np.zeros(NUM_JOINTS, dtype=int)
    vis[0] = vis[1] = 1
    area = 64.0
    gt = make_kp(vis=vis, area=area)
    pred_xy = gt.xy.copy()
    pred_xy[1, 1] += np.sqrt(2.0 * area * DEFAULT_SIGMAS[1] ** 2)
    pred = make_kp(xy=pred_xy, vis=vis, area=area)
    assert oks(pred, gt) == pytest.approx((1.0 + np.exp(-1.0)) / 2.0, abs=1e-6)


def test_oks_no_visible_joints_undefined():
    kp = make_kp(vis=np.zeros(NUM_JOINTS, dtype=int), area=1.0)
    with pytest.raises(PoseError, match="undefined"):
        oks(kp, kp)


def test_oks_monotone_in_distance():
    gt = make_kp()
    prev = 1.0
    for step in (0.5, 1.0, 2.0, 4.0):
        xy = gt.xy.copy()
        xy[5, 0] += step
        val = oks(make_kp(xy=xy), gt)
        assert val < prev
        prev = val


def test_oks_translation_invariant(rng):
    gt = make_kp()
    pred = make_kp(xy=gt.xy + rng.normal(scale=1.0, size=gt.xy.shape))
    shift = np.array([13.0, -7.0])
    shifted = oks(
        make_kp(xy=pred.xy + shift), make_kp(xy=gt.xy + shift)
    )
    assert shifted == pytest.approx(oks(pred, gt), abs=1e-12)


def test_oks_scale_homogeneity(rng):
    gt = make_kp(area=50.0)
    pred = make_kp(xy=gt.xy + rng.normal(scale=1.0, size=gt.xy.shape), area=50.0)
    k = 3.0
    gt_scaled = make_kp(xy=gt.xy * k, area=50.0 * k ** 2)
    pred_scaled = make_kp(xy=gt.xy * k + (pred.xy - gt.xy) * k, area=50.0 * k ** 2)
    assert oks(pred_scaled, gt_scaled) == pytest.approx(oks(pred, gt), abs=1e-12)


def test_oks_params_validation():
    with pytest.raises(PoseError):
        OksParams(sigmas=(0.1,) * 13)
    with pytest.raises(PoseError):
        OksParams(sigmas=(0.1,) * 13 + (-1.0,))


# ---------------------------------------------------------------- ap

def test_ap_all_ones():
    out = ap_summary([1.0] * 5)
    assert out["AP"] == out["AP50"] == out["AP75"] == 1.0


def test_ap_all_zero():
    out = ap_summary([0.0, 0.0])
    assert out["AP"] == out["AP50"] == out["AP75"] == 0.0


def test_ap_fixture_point_six_point_eight():
    out = ap_summary([0.6, 0.8])
    assert out["AP50"] == 1.0
    assert out["AP75"] == 0.5
    assert out["AP"] == 0.5


def test_ap_matches_threshold_enumeration(rng):
    values = list(rng.random(31))
    out = ap_summary(values)
    ap_oracle, table_oracle = ap_thresholds_loops(values)
    assert out["AP"] == pytest.approx(ap_oracle)
    for t, v in table_oracle.items():
        assert out["per_threshold"][f"{t:.2f}"] == pytest.approx(v)


def test_ap_monotone_in_threshold(rng):
    out = ap_summary(list(rng.random(40)))
    vals = [out["per_threshold"][f"{(50 + 5 * i) / 100.0:.2f}"] for i in range(10)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert vals[-1] <= out["AP"] <= vals[0]


def test_ap_empty_rejected():
    with pytest.raises(PoseError):
        ap_summary([])


# ---------------------------------------------------------------- json i/o

def test_keypoint_json_round_trip(tmp_path):
    kp = make_kp()
    path = tmp_path / "kp.json"
    path.write_text(json.dumps([kp.to_json()]))
    loaded = load_keypoint_frames(path)[0]
    np.testing.assert_array_equal(loaded.xy, kp.xy)
    assert loaded.area == kp.area
    assert loaded.frame is None and "frame" not in kp.to_json()


def test_keypoint_json_missing_joint(tmp_path):
    doc = make_kp().to_json()
    doc["joints"] = doc["joints"][1:]
    path = tmp_path / "kp.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(PoseError, match="missing"):
        load_keypoint_frames(path)


def test_joint_names_cover_skeleton():
    assert len(JOINT_NAMES) == 14
    assert JOINT_NAMES[0] == "head" and JOINT_NAMES[1] == "neck"
