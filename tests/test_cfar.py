import numpy as np
import pytest

from oracles import cfar_loops
from radarpose.cfar import (
    CfarError,
    CfarParams,
    DetectionMask,
    RangeBinSet,
    cfar_alpha,
    detect_2d,
    select_range_bins,
)


def test_alpha_direct_evaluation():
    # n_ref=1, pfa=0.25 -> 1 * (4 - 1)
    assert cfar_alpha(CfarParams(pfa=0.25), 1) == pytest.approx(3.0)


def test_alpha_vanishes_as_pfa_approaches_one():
    assert cfar_alpha(CfarParams(pfa=1 - 1e-12), 16) == pytest.approx(0.0, abs=1e-9)


def test_alpha_vectorized():
    alphas = cfar_alpha(CfarParams(pfa=0.25), np.array([1.0, 2.0]))
    np.testing.assert_allclose(alphas, [3.0, 2 * (0.25 ** -0.5 - 1)])


def test_param_validation():
    with pytest.raises(CfarError):
        CfarParams(guard=-1)
    with pytest.raises(CfarError):
        CfarParams(reference=0)
    with pytest.raises(CfarError):
        CfarParams(pfa=0.0)
    with pytest.raises(CfarError):
        cfar_alpha(CfarParams(), 0)


def test_constant_map_no_detections():
    params = CfarParams(guard=1, reference=2, pfa=1e-3)
    det = detect_2d(np.ones((32, 32)), params)
    assert not det.mask.any()
    oracle_mask, oracle_thr = cfar_loops(np.ones((32, 32)), guard=1, reference=2, pfa=1e-3)
    np.testing.assert_array_equal(det.mask, oracle_mask)
    np.testing.assert_allclose(det.thresholds, oracle_thr)


def test_single_spike_detected_and_neighbors_suppressed():
    params = CfarParams(guard=1, reference=2, pfa=1e-3)
    mag = np.ones((21, 21))
    mag[10, 10] = 1000.0
    det = detect_2d(mag, params)
    # ring mean at the spike is 1.0 over 40 cells, so T = alpha(40) ~ 7.5 < 1000;
    # a neighbour with the spike in its ring gets T ~ 7.5 * 26 > 1
    assert det.thresholds[10, 10] == pytest.approx(cfar_alpha(params, 40))
    assert det.mask[10, 10]
    assert det.mask.sum() == 1
    oracle_mask, oracle_thr = cfar_loops(mag, guard=1, reference=2, pfa=1e-3)
    np.testing.assert_array_equal(det.mask, oracle_mask)
    np.testing.assert_allclose(det.thresholds, oracle_thr)


@pytest.mark.parametrize("seed", range(3))
def test_matches_brute_force_on_random_maps(seed):
    rng = np.random.default_rng(seed)
    mag = rng.exponential(size=(18, 14))
    params = CfarParams(guard=2, reference=3, pfa=1e-2)
    det = detect_2d(mag, params)
    oracle_mask, oracle_thr = cfar_loops(mag, guard=2, reference=3, pfa=1e-2)
    np.testing.assert_array_equal(det.mask, oracle_mask)
    np.testing.assert_allclose(det.thresholds, oracle_thr, rtol=1e-10)


@pytest.mark.parametrize("pfa", [1e-2, 1e-3])
def test_monte_carlo_false_alarm_rate(pfa):
    params = CfarParams(guard=5, reference=16, pfa=pfa)
    alarms = 0
    cells = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        det = detect_2d(rng.exponential(size=(256, 256)), params)
        alarms += det.mask.sum()
        cells += det.mask.size
    rate = alarms / cells
    sd = np.sqrt(pfa * (1 - pfa) / cells)
    assert abs(rate - pfa) <= 3 * sd


@pytest.mark.parametrize("seed", range(5))
def test_scale_invariance(seed):
    rng = np.random.default_rng(seed)
    mag = rng.exponential(size=(40, 40))
    params = CfarParams(guard=2, reference=4, pfa=1e-2)
    base = detect_2d(mag, params).mask
    for s in (1e-3, 7.0, 1000.0):
        np.testing.assert_array_equal(detect_2d(s * mag, params).mask, base)


def test_monotonic_raising_a_cell_keeps_it_detected(rng):
    mag = rng.exponential(size=(30, 30))
    params = CfarParams(guard=2, reference=4, pfa=1e-2)
    det = detect_2d(mag, params)
    r, c = 15, 15
    boosted = mag.copy()
    boosted[r, c] = mag[r, c] + 50.0
    det2 = detect_2d(boosted, params)
    if det.mask[r, c]:
        assert det2.mask[r, c]
    assert det2.mask[r, c] or not det.mask[r, c]


def test_mask_consistent_with_emitted_thresholds(rng):
    mag = rng.exponential(size=(25, 31))
    det = detect_2d(mag, CfarParams(guard=1, reference=3, pfa=1e-2))
    np.testing.assert_array_equal(det.mask, mag > det.thresholds)


def test_map_without_any_reference_cell():
    # 3x3 map fully inside the guard region of every cell; the shape-only
    # plan is cached, so the second call must raise too
    for _ in range(2):
        with pytest.raises(CfarError, match="reference"):
            detect_2d(np.ones((3, 3)), CfarParams(guard=5, reference=16, pfa=1e-2))


def test_calls_on_one_shape_return_independent_writable_arrays(rng):
    params = CfarParams(guard=1, reference=2, pfa=1e-2)
    first = detect_2d(rng.exponential(size=(12, 9)), params)
    second = detect_2d(rng.exponential(size=(12, 9)), params)
    for a, b in ((first.mask, second.mask), (first.thresholds, second.thresholds)):
        assert a.flags.writeable and b.flags.writeable
        assert not np.shares_memory(a, b)
    kept = second.thresholds.copy()
    first.thresholds[:] = -1.0
    first.mask[:] = True
    np.testing.assert_array_equal(second.thresholds, kept)
    # a third call on the same shape is not affected by the writes either
    mag = rng.exponential(size=(12, 9))
    oracle_mask, oracle_thr = cfar_loops(mag, guard=1, reference=2, pfa=1e-2)
    det = detect_2d(mag, params)
    np.testing.assert_array_equal(det.mask, oracle_mask)
    np.testing.assert_allclose(det.thresholds, oracle_thr, rtol=1e-10)


def test_negative_map_rejected():
    with pytest.raises(CfarError, match="nonnegative"):
        detect_2d(np.full((10, 10), -1.0), CfarParams(guard=1, reference=2, pfa=0.5))


def test_select_range_bins_empty():
    mask = DetectionMask(mask=np.zeros((6, 8), dtype=bool), thresholds=np.ones((6, 8)))
    assert list(select_range_bins(mask)) == []


def test_select_range_bins_dedup():
    m = np.zeros((6, 12), dtype=bool)
    m[3, 1] = m[3, 9] = True
    mask = DetectionMask(mask=m, thresholds=np.ones_like(m, dtype=float))
    assert list(select_range_bins(mask)) == [3]


def test_select_range_bins_matches_row_scan(rng):
    m = rng.random((20, 16)) < 0.1
    mask = DetectionMask(mask=m, thresholds=np.ones_like(m, dtype=float))
    oracle = [r for r in range(20) if any(m[r, d] for d in range(16))]
    assert list(select_range_bins(mask)) == oracle


def test_select_range_bins_idempotent(rng):
    m = rng.random((20, 16)) < 0.2
    mask = DetectionMask(mask=m, thresholds=np.ones_like(m, dtype=float))
    bins = select_range_bins(mask)
    assert RangeBinSet(bins=bins.bins).bins == bins.bins


def test_range_bin_set_rejects_unsorted():
    with pytest.raises(CfarError):
        RangeBinSet(bins=(3, 1))
    with pytest.raises(CfarError):
        RangeBinSet(bins=(1, 1))
