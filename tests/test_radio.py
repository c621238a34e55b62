import math
import random
import warnings

import numpy as np
import pytest

from uavnav.gridworld import GridSpec, build
from uavnav.radio import (
    CoverageMap,
    HataValidityWarning,
    LinkBudget,
    cell_snr_db,
    coverage_map,
    mobile_correction_alpha,
    path_loss_db,
    require_finite_snr,
    snr_db,
    warn_outside_validity,
)

from oracles import cost231_path_loss


def test_alpha_worked_value():
    assert abs(mobile_correction_alpha(900.0, 1.5) - 0.01588) < 1e-4


def test_alpha_root():
    # h_r at which the linear form crosses zero, solved analytically.
    logf = math.log10(900.0)
    root = (1.56 * logf - 0.8) / (1.1 * logf - 0.7)
    assert abs(root - 1.4937) < 1e-3
    assert abs(mobile_correction_alpha(900.0, root)) < 1e-9


def test_alpha_linear_in_height():
    for f in (150.0, 900.0, 2600.0):
        a1 = mobile_correction_alpha(f, 7.0)
        a2 = mobile_correction_alpha(f, 14.0)
        a3 = mobile_correction_alpha(f, 21.0)
        assert abs((a2 - a1) - (a3 - a2)) < 1e-9
        slope = (a2 - a1) / 7.0
        assert abs(slope - (1.1 * math.log10(f) - 0.7)) < 1e-9


def test_alpha_rejects_nonpositive():
    with pytest.raises(ValueError):
        mobile_correction_alpha(0.0, 1.5)
    with pytest.raises(ValueError):
        mobile_correction_alpha(900.0, -1.0)


def test_path_loss_worked_value():
    lb = LinkBudget(f_mhz=900.0, h_b_m=60.0, c_m_db=0.0)
    loss = path_loss_db(lb, h_r_m=1.5, d_km=1.0)
    assert abs(loss - 121.859) < 1e-3


def test_path_loss_at_1km_ignores_distance_coefficient():
    # log10(1) = 0, so the 44.9-term vanishes: same loss for any h_b scale
    # applied only to that term. Check directly against the reduced form.
    lb = LinkBudget(f_mhz=900.0, h_b_m=60.0)
    expected = (
        46.3
        + 33.9 * math.log10(900.0)
        - 13.82 * math.log10(60.0)
        - mobile_correction_alpha(900.0, 1.5)
    )
    assert abs(path_loss_db(lb, 1.5, 1.0) - expected) < 1e-12


def test_path_loss_oracle_equivalence_1000_tuples():
    rng = random.Random(2024)
    worst = 0.0
    for _ in range(1000):
        f = rng.uniform(150.0, 2600.0)
        h_b = rng.uniform(30.0, 200.0)
        h_r = rng.uniform(1.0, 100.0)
        d = rng.uniform(0.01, 5.0)
        c_m = rng.uniform(-5.0, 5.0)
        lb = LinkBudget(f_mhz=f, h_b_m=h_b, c_m_db=c_m)
        got = path_loss_db(lb, h_r, d)
        want = cost231_path_loss(f, h_b, h_r, d, c_m)
        worst = max(worst, abs(got - want))
    assert worst <= 1e-9


def test_path_loss_monotonic_in_distance():
    lb = LinkBudget(f_mhz=1800.0, h_b_m=60.0)
    losses = [path_loss_db(lb, 10.0, d) for d in (0.01, 0.05, 0.2, 1.0, 3.0)]
    assert all(a < b for a, b in zip(losses, losses[1:]))


def test_path_loss_clamps_small_distance():
    lb = LinkBudget(f_mhz=900.0, h_b_m=60.0)
    assert path_loss_db(lb, 10.0, 0.0) == path_loss_db(lb, 10.0, 0.01)
    assert path_loss_db(lb, 10.0, 0.001) == path_loss_db(lb, 10.0, 0.01)


def test_band_ordering_where_alpha_slope_allows():
    # dL/dlog10(f) = 33.9 - (1.1 h_r - 1.56): positive below ~32 m, so the
    # paper's band ordering holds on the low layers and flips high up.
    lb900 = LinkBudget(f_mhz=900.0)
    lb1800 = LinkBudget(f_mhz=1800.0)
    lb2100 = LinkBudget(f_mhz=2100.0)
    for h_r in (10.0, 30.0):
        for d in (0.1, 0.3, 0.7):
            l1 = path_loss_db(lb900, h_r, d)
            l2 = path_loss_db(lb1800, h_r, d)
            l3 = path_loss_db(lb2100, h_r, d)
            assert l1 < l2 < l3
    for h_r in (50.0, 70.0, 90.0):
        assert path_loss_db(lb900, h_r, 0.5) > path_loss_db(lb2100, h_r, 0.5)


def test_noise_floor():
    lb = LinkBudget(bandwidth_hz=10e6, noise_figure_db=7.0)
    assert abs(lb.noise_floor_dbm - (-97.0)) < 1e-12


def test_snr_worked_values():
    lb = LinkBudget(f_mhz=900.0, h_b_m=60.0)
    # composition: budget minus loss minus noise floor
    loss = path_loss_db(lb, 1.5, 1.0)
    assert abs(snr_db(lb, 1.5, 1.0) - (43.0 - loss + 97.0)) < 1e-12
    assert abs(snr_db(lb, 1.5, 1.0) - 18.141) < 1e-3
    # a 140 dB loss under defaults gives exactly 0 dB SNR
    assert abs((43.0 + 0.0 + 0.0) - 140.0 - lb.noise_floor_dbm) < 1e-12


def test_snr_decreasing_in_distance():
    lb = LinkBudget(f_mhz=900.0)
    snrs = [snr_db(lb, 10.0, d) for d in (0.05, 0.2, 0.5, 1.0)]
    assert all(a > b for a, b in zip(snrs, snrs[1:]))


def test_coverage_ok_boundary():
    # a cell is covered at or above the threshold; -inf covers every cell
    spec = GridSpec(nx=3, ny=1, nz=1)
    snr = np.array([5.0, 4.999, -1000.0]).reshape(3, 1, 1)
    at_five = CoverageMap(spec, f_mhz=900.0, snr_threshold_db=5.0, snr=snr)
    assert at_five.covered().ravel().tolist() == [True, False, False]
    disabled = CoverageMap(spec, f_mhz=900.0, snr_threshold_db=-math.inf, snr=snr)
    assert disabled.covered().all()


def test_coverage_map_geometry_and_purity():
    world = build(GridSpec(), 0.0, seed=1, bs_xy=(10, 10, 0))
    lb = LinkBudget(f_mhz=900.0)
    m1 = coverage_map(lb, world)
    m2 = coverage_map(lb, world)
    assert np.array_equal(m1.snr, m2.snr)
    assert m1.snr.shape == (20, 20, 5)
    assert np.all(np.isfinite(m1.snr))
    # the BS column has the layer-wise maximum SNR
    for z in range(5):
        layer = m1.snr[:, :, z]
        assert layer[10, 10] == layer.max()
    # spot check one cell against the scalar path
    assert m1.snr[3, 7, 2] == cell_snr_db(lb, world.spec, (10, 10, 0), (3, 7, 2))


def test_coverage_map_ignores_obstacles():
    lb = LinkBudget(f_mhz=1800.0)
    empty = build(GridSpec(), 0.0, seed=1, bs_xy=(10, 10, 0))
    dense = build(GridSpec(), 0.3, seed=1, bs_xy=(10, 10, 0))
    assert np.array_equal(coverage_map(lb, empty).snr, coverage_map(lb, dense).snr)


def test_band_coverage_fraction_ordering():
    world = build(GridSpec(), 0.0, seed=1, bs_xy=(10, 10, 0))
    below = {}
    for band in (900.0, 2100.0):
        m = coverage_map(LinkBudget(f_mhz=band), world)
        below[band] = 1.0 - m.covered_fraction()
    assert below[2100.0] >= below[900.0]


def test_formula_functions_never_warn():
    # the default grid and bands lie outside the canonical COST 231 box
    spec = GridSpec()
    world = build(spec, 0.0, seed=1, bs_xy=(10, 10, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for band in (900.0, 2100.0):
            lb = LinkBudget(f_mhz=band)
            path_loss_db(lb, 50.0, 0.5)
            cell_snr_db(lb, spec, (10, 10, 0), (0, 0, 4))
            coverage_map(lb, world)
            require_finite_snr(lb, spec, (10, 10, 0))


def _validity_warnings(bands, spec):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warn_outside_validity(bands, spec)
    return [str(w.message) for w in caught if issubclass(w.category, HataValidityWarning)]


def test_validity_warning_names_the_first_pair_outside_the_box():
    # layer centres at 10, 30 and 50 m: only the ground layer is in the box
    spec = GridSpec(nx=2, ny=2, nz=3)
    (msg,) = _validity_warnings([1800.0, 900.0], spec)
    assert "(f=1800 MHz, mobile height=30 m)" in msg
    (msg,) = _validity_warnings([900.0, 1800.0], spec)
    assert "(f=900 MHz, mobile height=10 m)" in msg
    # inside the box nothing fires
    one_layer = GridSpec(nx=2, ny=2, nz=1, cell_height_m=10.0)
    assert _validity_warnings([1800.0], one_layer) == []
    assert _validity_warnings([1500.0, 2000.0], GridSpec(nx=2, ny=2, nz=1)) == []


def test_link_budget_validation():
    with pytest.raises(ValueError):
        LinkBudget(f_mhz=0.0)
    with pytest.raises(ValueError):
        LinkBudget(bandwidth_hz=0.0)
    with pytest.raises(ValueError):
        LinkBudget(d_min_km=0.0)
    with pytest.raises(ValueError):
        path_loss_db(LinkBudget(), math.nan, 1.0)
