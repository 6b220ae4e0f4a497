import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import grid_polish_minimizer, prox_objective, traced_peak
from pcmd import detector
from pcmd.calibration import CalibrationDomain, DrfPolynomial
from pcmd.detector import (ProxParams, detector_agent_apply, detector_loss,
                           prox_partial_update, surrogate_at)
from pcmd.errors import NumericError, ToolkitError
from pcmd.simulate import expected_counts


def scalar_linear_drf():
    """K = L = 1 response phi(q) = q (identity), over a [0, 10] domain."""
    domain = CalibrationDomain(lower=np.zeros(1), upper=np.array([10.0]))
    theta = np.array([[[0.0, 1.0]]])  # constant 0, linear 1 in the raw basis
    return DrfPolynomial(theta=theta, order=1, n_materials=1, domain=domain,
                         basis_scale=np.ones(1))


def affine_drf():
    """Two materials, three bins, exactly affine response."""
    domain = CalibrationDomain(lower=np.zeros(2), upper=np.array([40.0, 5.0]))
    theta = np.zeros((1, 3, 4))
    theta[0, :, 0] = [0.5, 0.7, 0.9]
    theta[0, :, 1] = [0.8, 0.6, 0.5]   # pvc slope (raw basis)
    theta[0, :, 2] = [0.25, 0.2, 0.18]  # pe slope
    return DrfPolynomial(theta=theta, order=1, n_materials=2, domain=domain,
                         basis_scale=np.ones(2))


def test_zero_response_loss_is_air_times_bins(noiseless_drf):
    zero = DrfPolynomial(theta=np.zeros((1, 8, 25)), order=4, n_materials=2,
                         domain=noiseless_drf.domain, basis_scale=noiseless_drf.basis_scale)
    t = np.random.default_rng(0).uniform(0, 1, 8)
    assert detector_loss(np.array([3.0, 1.0]), t, 1.0e4, zero) == pytest.approx(8.0e4, rel=1e-14)


def test_scalar_loss_minimized_at_noiseless_transmission():
    drf = scalar_linear_drf()
    p_star = 2.0
    t = np.array([np.exp(-p_star)])
    eps = 1e-6
    l0 = detector_loss(np.array([p_star]), t, 100.0, drf)
    assert detector_loss(np.array([p_star + eps]), t, 100.0, drf) > l0
    assert detector_loss(np.array([p_star - eps]), t, 100.0, drf) > l0


def test_loss_equals_full_nll_up_to_constant(default_spectrum, basis_materials, noiseless_drf):
    # the dropped constant is independent of p: difference of the two at two
    # points matches the difference of the exact Poisson NLL
    rng = np.random.default_rng(4)
    air = 5.0e4
    dose = air / default_spectrum.total_fluence
    p_star = np.array([12.0, 1.0])
    lam_star = expected_counts(default_spectrum, basis_materials, p_star, dose)
    counts = np.round(lam_star)
    t = counts / air

    def full_nll(p):
        lam = air * np.exp(-noiseless_drf.eval(p, 0))
        return float(np.sum(lam - counts * np.log(lam)))

    pa, pb = rng.uniform([0, 0], [30, 3], size=(2, 2))
    diff_loss = detector_loss(pa, t, air, noiseless_drf) - detector_loss(pb, t, air, noiseless_drf)
    diff_nll = full_nll(pa) - full_nll(pb)
    assert diff_loss == pytest.approx(diff_nll, rel=1e-9)


def test_surrogate_gradient_vector_zero_case():
    s = surrogate_at(np.zeros(4), np.ones(4))
    assert np.array_equal(s.b, np.zeros(4))


def test_surrogate_tangency_is_exact():
    rng = np.random.default_rng(2)
    z = rng.uniform(-2, 6, 100)
    t = rng.uniform(0, 2, 100)
    s = surrogate_at(z, t)
    assert np.array_equal(s.b, -np.exp(-z) + t)
    assert np.all(s.value(z) == 0.0)
    assert np.array_equal(s.gradient(z), s.b)


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
def test_curvature_approaches_second_derivative(eps):
    rng = np.random.default_rng(3)
    z = rng.uniform(-2, 6, 500)
    c = surrogate_at(z, np.zeros_like(z), eps).c
    # c = exp(-z) * 2(e^eps - 1 - eps)/eps^2 -> exp(-z) * (1 + eps/3 + O(eps^2))
    assert np.abs(c - np.exp(-z)).max() <= np.exp(2.0) * eps


@settings(max_examples=200, deadline=None)
@given(st.floats(-2.0, 8.0), st.floats(0.0, 2.0), st.floats(0.0, 20.0))
def test_surrogate_majorizes_everywhere_above_zmin(z_ref, t, offset):
    s = surrogate_at(np.array([z_ref]), np.array([t]))
    z = s.z_min + offset

    def g(x):
        return np.exp(-x) + t * x

    gap = (g(z) - g(np.array([z_ref]))) - (s.b * (z - z_ref) + 0.5 * s.c * (z - z_ref) ** 2)
    assert gap[0] <= 1e-12


def test_prox_collapses_to_identity_for_tiny_sigma(noiseless_drf):
    p = np.array([8.0, 2.0])
    t = np.exp(-noiseless_drf.eval(np.array([10.0, 1.5]), 0))
    out = prox_partial_update(p, p, t, 1.0e6, noiseless_drf,
                              ProxParams(sigma=1e-9, n_sub=3))
    assert np.linalg.norm(out - p) <= 1e-6


def test_scalar_fixed_point_at_mle():
    drf = scalar_linear_drf()
    t = np.array([np.exp(-2.0)])
    out = prox_partial_update(np.array([2.0]), np.array([2.0]), t, 1.0e4, drf,
                              ProxParams(sigma=1.0, n_sub=5))
    assert out[0] == pytest.approx(2.0, abs=1e-12)


def test_monotone_objective_on_affine_response():
    # with an affine response the linearization is exact, so every update whose
    # new response values stay in the majorized region [z_min, inf) must not
    # increase the prox objective; steps that leave the region (z moving down
    # by more than epsilon) carry no guarantee and are only counted
    drf = affine_drf()
    rng = np.random.default_rng(6)
    eps = 1e-3
    in_region_steps = 0
    for trial in range(20):
        p_star = rng.uniform([0, 0], [30, 4])
        t = np.exp(-drf.eval(p_star, 0)) * rng.uniform(0.9, 1.1, 3)
        tether = p_star + rng.normal(0, 1.0, 2)
        sigma = 10 ** rng.uniform(-2, 1)
        air = 1.0e4
        obj = prox_objective(drf, t, air, tether, sigma)
        prev = obj(tether)
        pp = tether.copy()
        for _ in range(8):
            z_min = drf.eval(pp, 0) - eps
            pp = prox_partial_update(tether, pp, t, air, drf,
                                     ProxParams(sigma=sigma, n_sub=1, epsilon=eps))
            cur = obj(pp)
            if np.all(drf.eval(pp, 0) >= z_min):
                in_region_steps += 1
                assert cur <= prev + 1e-12 * max(1.0, abs(prev))
            prev = cur
    assert in_region_steps > 50  # the guarantee is exercised, not vacuous


def test_single_update_does_not_increase_objective_on_calibrated_drf(noiseless_drf):
    rng = np.random.default_rng(7)
    air = 3.0e5
    for trial in range(20):
        p_star = rng.uniform([1, 0.2], [30, 4])
        t = np.exp(-noiseless_drf.eval(p_star, 0))
        tether = p_star + rng.normal(0, 0.2, 2)
        sigma = 0.5
        obj = prox_objective(noiseless_drf, t, air, tether, sigma)
        out = prox_partial_update(tether, tether, t, air, noiseless_drf,
                                  ProxParams(sigma=sigma, n_sub=1))
        assert obj(out) <= obj(tether) + 1e-9 * max(1.0, abs(obj(tether)))


def test_prox_matches_grid_polish_oracle(noiseless_drf):
    rng = np.random.default_rng(11)
    air = 2.0e4
    for trial in range(10):
        p_star = rng.uniform([1, 0.1], [30, 4])
        t = np.exp(-noiseless_drf.eval(p_star, 0)) * rng.uniform(0.95, 1.05, 8)
        tether = p_star + rng.normal(0, 0.3, 2)
        sigma = 10 ** rng.uniform(-1.5, 0.5)
        out = prox_partial_update(tether, tether, t, air, noiseless_drf,
                                  ProxParams(sigma=sigma, n_sub=50))
        oracle = grid_polish_minimizer(prox_objective(noiseless_drf, t, air, tether, sigma),
                                       noiseless_drf.domain)
        assert np.abs(out - oracle).max() < 1e-6


def test_prox_large_sigma_approaches_unpenalized_minimum(noiseless_drf):
    p_star = np.array([14.0, 2.0])
    t = np.exp(-noiseless_drf.eval(p_star, 0))
    tether = p_star + np.array([0.5, -0.3])
    out = prox_partial_update(tether, tether, t, 3.0e5, noiseless_drf,
                              ProxParams(sigma=1e4, n_sub=60))
    assert np.abs(out - p_star).max() < 1e-5  # noiseless t: minimum sits at p_star


def test_rows_are_independent_and_permutable(noiseless_drf):
    rng = np.random.default_rng(12)
    m = 40
    p = rng.uniform([0, 0], [30, 4], size=(m, 2))
    t = np.exp(-noiseless_drf.eval_sino(p, channels=np.zeros(m, dtype=int)))
    air = np.full(m, 1.0e4)
    params = ProxParams(sigma=0.7, n_sub=2)
    ch = np.zeros(m, dtype=int)
    out = detector_agent_apply(p, t, air, noiseless_drf, params, channels=ch)
    perm = rng.permutation(m)
    out_perm = detector_agent_apply(p[perm], t[perm], air[perm], noiseless_drf, params,
                                    channels=ch)
    assert np.array_equal(out[perm], out_perm)


def test_single_row_sinogram_equals_row_prox(noiseless_drf):
    p = np.array([[10.0, 1.0]])
    t = np.exp(-noiseless_drf.eval_sino(p, channels=np.zeros(1, dtype=int)))
    params = ProxParams(sigma=0.5, n_sub=3)
    full = detector_agent_apply(p, t, np.array([2.0e4]), noiseless_drf, params,
                                channels=np.zeros(1, dtype=int))
    row = prox_partial_update(p[0], p[0], t[0], 2.0e4, noiseless_drf, params)
    assert np.array_equal(full[0], row)


def test_agent_near_identity_at_rowwise_mle(noiseless_drf):
    rng = np.random.default_rng(13)
    m = 25
    p_true = rng.uniform([1, 0.1], [30, 4], size=(m, 2))
    t = np.exp(-noiseless_drf.eval_sino(p_true, channels=np.zeros(m, dtype=int)))
    air = np.full(m, 3.0e5)
    out = detector_agent_apply(p_true, t, air, noiseless_drf,
                               ProxParams(sigma=1e4, n_sub=1),
                               channels=np.zeros(m, dtype=int))
    assert np.abs(out - p_true).max() < 1e-6


def test_noiseless_rows_recover_truth_with_large_sigma(default_spectrum, basis_materials,
                                                       noiseless_drf):
    rng = np.random.default_rng(14)
    m = 50
    p_true = rng.uniform([0.5, 0.05], [25, 2], size=(m, 2))
    lam = expected_counts(default_spectrum, basis_materials, p_true, 1.0)
    t = lam / default_spectrum.total_fluence
    air = np.full(m, 3.0e5)
    p = p_true + rng.normal(0, 0.2, size=(m, 2))  # warm start near truth
    out = detector_agent_apply(p, t, air, noiseless_drf,
                               ProxParams(sigma=1e3, n_sub=50),
                               channels=np.zeros(m, dtype=int))
    assert np.abs(out - p_true).max() < 1e-4


def test_shape_mismatch_raises(noiseless_drf):
    with pytest.raises(Exception, match="rows"):
        detector_agent_apply(np.zeros((3, 2)), np.zeros((4, 8)), np.ones(3),
                             noiseless_drf, ProxParams())


@pytest.mark.parametrize("rows", [2, 4])
def test_p_prime_of_another_shape_raises(noiseless_drf, monkeypatch, rows):
    monkeypatch.setattr(detector, "_BLOCK_ROWS", 1)   # a longer p_prime must not be cut to p's rows
    with pytest.raises(ToolkitError, match="p_prime"):
        detector_agent_apply(np.ones((3, 2)), np.full((3, 8), 0.5), np.ones(3),
                             noiseless_drf, ProxParams(), p_prime=np.ones((rows, 2)))


@pytest.mark.filterwarnings("ignore:invalid value")
def test_nonfinite_raise_and_hold(noiseless_drf):
    p = np.array([[np.inf, 1.0]])
    t = np.full((1, 8), 0.5)
    with pytest.raises(NumericError, match="non-finite"):
        detector_agent_apply(p, t, np.ones(1), noiseless_drf, ProxParams(),
                             channels=np.zeros(1, dtype=int))
    held = detector_agent_apply(p, t, np.ones(1), noiseless_drf, ProxParams(),
                                channels=np.zeros(1, dtype=int), on_nonfinite="hold")
    assert np.array_equal(held, p)


def test_exp_clamp_counts_events():
    before = detector.CLAMP_EVENTS["count"]
    detector._exp_neg(np.array([1000.0, -1000.0, 0.0]))
    assert detector.CLAMP_EVENTS["count"] == before + 2
    # one sub-update counts each clamped entry of phi once
    drf, p = affine_drf(), np.array([[0.0, 70.0]])
    clamped = np.count_nonzero(np.abs(drf.eval_jac(p)[0]) > detector.Z_CLAMP)
    assert clamped == 1
    before = detector.CLAMP_EVENTS["count"]
    detector_agent_apply(p, np.full((1, 3), 0.5), np.ones(1), drf, ProxParams(n_sub=1))
    assert detector.CLAMP_EVENTS["count"] == before + clamped


def test_nan_is_not_counted_as_a_clamp():
    before = detector.CLAMP_EVENTS["count"]
    out = detector._exp_neg(np.array([np.nan, 60.0, 1.0, -np.inf]))
    assert detector.CLAMP_EVENTS["count"] == before + 2   # 60 and -inf are moved, NaN is not
    assert np.isnan(out[0])
    assert np.array_equal(out[1:], np.exp([-50.0, -1.0, 50.0]))


# --- blocks of rows ---

N_CHAN = 4


@pytest.fixture(scope="module")
def per_channel_rows(noiseless_drf):
    """A four-channel calibration and 25 views of noisy rows, tether and linearization point."""
    theta = np.stack([noiseless_drf.theta[0] * (1.0 + 0.02 * c) for c in range(N_CHAN)])
    drf = DrfPolynomial(theta=theta, order=noiseless_drf.order, n_materials=2,
                        domain=noiseless_drf.domain, basis_scale=noiseless_drf.basis_scale)
    rng = np.random.default_rng(31)
    p_true = rng.uniform([1.0, 0.1], [30.0, 4.0], size=(25 * N_CHAN, 2))
    t = np.exp(-drf.eval_sino(p_true)) * rng.uniform(0.95, 1.05, size=(p_true.shape[0], 8))
    tether = p_true + rng.normal(0.0, 0.3, size=p_true.shape)
    p_prime = p_true + rng.normal(0.0, 0.3, size=p_true.shape)
    return drf, tether, t, np.full(p_true.shape[0], 2.0e4), p_prime


@pytest.mark.parametrize("explicit, sizes", [
    (False, (28, 28, 28, 16)),     # whole views of four channels
    (True, (30, 30, 30, 10)),      # plain row slices
])
@pytest.mark.parametrize("n_sub", [1, 2])
def test_blocks_give_the_unblocked_result(per_channel_rows, monkeypatch, explicit, sizes, n_sub):
    drf, p, t, air, pp = per_channel_rows
    channels = np.arange(p.shape[0]) % N_CHAN if explicit else None
    params = ProxParams(sigma=0.7, n_sub=n_sub)
    whole = detector_agent_apply(p, t, air, drf, params, p_prime=pp, channels=channels)
    seen = []
    eval_jac = DrfPolynomial.eval_jac

    def spy(self, rows, channels=None):
        seen.append(rows.shape[0])
        return eval_jac(self, rows, channels)

    monkeypatch.setattr(DrfPolynomial, "eval_jac", spy)
    monkeypatch.setattr(detector, "_BLOCK_ROWS", 30)
    blocked = detector_agent_apply(p, t, air, drf, params, p_prime=pp, channels=channels)
    assert seen == [n for n in sizes for _ in range(n_sub)]   # each block runs every update
    assert np.abs(blocked - whole).max() <= 1e-12


@pytest.mark.filterwarnings("ignore:invalid value")
@pytest.mark.parametrize("block_rows", [30, 1 << 14])
def test_a_bad_row_in_a_later_block_is_reported_by_its_row(per_channel_rows, monkeypatch,
                                                           block_rows):
    drf, p, t, air, pp = per_channel_rows
    p = p.copy()
    p[70, 0] = np.inf
    monkeypatch.setattr(detector, "_BLOCK_ROWS", block_rows)
    with pytest.raises(NumericError, match=r"rows \[70\]$"):
        detector_agent_apply(p, t, air, drf, ProxParams(), p_prime=pp)


def test_agent_memory_does_not_grow_with_rows(per_channel_rows):
    drf = per_channel_rows[0]
    rng = np.random.default_rng(32)

    def peak(n_rows):
        p = rng.uniform([1.0, 0.1], [30.0, 4.0], size=(n_rows, 2))
        t = np.exp(-drf.eval_sino(p))
        return traced_peak(detector_agent_apply, p, t, np.full(n_rows, 2.0e4), drf,
                           ProxParams(n_sub=1))

    one = peak(detector._BLOCK_ROWS)
    assert peak(4 * detector._BLOCK_ROWS) <= 1.5 * one
