import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import grid_polish_minimizer, prox_objective, traced_peak
from pcmd import detector
from pcmd.calibration import CalibrationDomain, DrfPolynomial
from pcmd.detector import EPSILON, _surrogate_terms, detector_agent_apply
from pcmd.errors import NumericError, ToolkitError
from pcmd.simulate import expected_counts
from pcmd.workspace import Workspace


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


def three_material_drf():
    """One channel, eight bins, an order-2 response in three materials over [0, 10] x
    [0, 2] x [0, 1] cm: a falling, a rising and an edged attenuation spectrum, mild
    hardening and small cross terms.  The Jacobian's condition number stays below 10,
    so the rounding of a block's matrix product moves no update by 1e-13."""
    k = np.arange(8)
    mu = np.stack([0.4 * np.exp(-0.4 * k), 0.05 + 0.05 * k, 0.05 + 0.6 * (k >= 4)])
    domain = CalibrationDomain(lower=np.zeros(3), upper=np.array([10.0, 2.0, 1.0]))
    theta = np.random.default_rng(41).uniform(-0.005, 0.005, size=(1, 8, 27))
    for l, lin in enumerate(mu * domain.upper[:, None]):
        theta[0, :, 3 ** (2 - l)] = lin                   # s_l: entry of np.ndindex((3, 3, 3))
        theta[0, :, 2 * 3 ** (2 - l)] = -0.02 * lin**2    # s_l^2
    return DrfPolynomial(theta=theta, order=2, n_materials=3, domain=domain,
                         basis_scale=domain.upper)


def drf_of_sets(base, n_chan, shared):
    """`n_chan` channels scaled from the one-channel `base`, all alike when `shared`."""
    theta = np.stack([base.theta[0] * (1.0 + (0.0 if shared else 0.01) * c)
                      for c in range(n_chan)])
    return DrfPolynomial(theta=theta, order=base.order, n_materials=base.n_materials,
                         domain=base.domain, basis_scale=base.basis_scale)


# the range of the true pathlengths (cm) that test rows are drawn from, per material count
ROW_RANGES = {2: ([1.0, 0.1], [30.0, 4.0]), 3: ([0.5, 0.1, 0.05], [7.5, 1.5, 0.75])}


def poisson_loss(p, t, air_total, drf):
    """The detector agent's Poisson loss of one row (constant dropped): the prox
    oracle's objective times the air total, with the tether at `p`."""
    return air_total * prox_objective(drf, t, air_total, p, 1.0)(p)


def test_zero_response_loss_is_air_times_bins(noiseless_drf):
    zero = DrfPolynomial(theta=np.zeros((1, 8, 25)), order=4, n_materials=2,
                         domain=noiseless_drf.domain, basis_scale=noiseless_drf.basis_scale)
    t = np.random.default_rng(0).uniform(0, 1, 8)
    assert poisson_loss(np.array([3.0, 1.0]), t, 1.0e4, zero) == pytest.approx(8.0e4, rel=1e-14)


def test_scalar_loss_minimized_at_noiseless_transmission():
    drf = scalar_linear_drf()
    p_star = 2.0
    t = np.array([np.exp(-p_star)])
    eps = 1e-6
    l0 = poisson_loss(np.array([p_star]), t, 100.0, drf)
    assert poisson_loss(np.array([p_star + eps]), t, 100.0, drf) > l0
    assert poisson_loss(np.array([p_star - eps]), t, 100.0, drf) > l0


def test_loss_equals_full_nll_up_to_constant(default_spectrum, basis_materials, noiseless_drf):
    # the dropped constant is independent of p: difference of the two at two
    # points matches the difference of the exact Poisson NLL
    rng = np.random.default_rng(4)
    air = 5.0e4
    p_star = np.array([12.0, 1.0])
    lam_star = expected_counts(default_spectrum, basis_materials, p_star[None], air)[0]
    counts = np.round(lam_star)
    t = counts / air

    def full_nll(p):
        lam = air * np.exp(-noiseless_drf.eval(p, 0))
        return float(np.sum(lam - counts * np.log(lam)))

    pa, pb = rng.uniform([0, 0], [30, 3], size=(2, 2))
    diff_loss = poisson_loss(pa, t, air, noiseless_drf) - poisson_loss(pb, t, air, noiseless_drf)
    diff_nll = full_nll(pa) - full_nll(pb)
    assert diff_loss == pytest.approx(diff_nll, rel=1e-9)


def test_surrogate_gradient_vector_zero_case():
    b, _ = _surrogate_terms(np.zeros(4), np.ones(4), EPSILON)
    assert np.array_equal(b, np.zeros(4))


def test_surrogate_tangency_is_exact():
    rng = np.random.default_rng(2)
    z = rng.uniform(-2, 6, 100)
    t = rng.uniform(0, 2, 100)
    b, _ = _surrogate_terms(z, t, EPSILON)
    assert np.array_equal(b, -np.exp(-z) + t)


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
def test_curvature_approaches_second_derivative(eps):
    rng = np.random.default_rng(3)
    z = rng.uniform(-2, 6, 500)
    _, c = _surrogate_terms(z, np.zeros_like(z), eps)
    # c = exp(-z) * 2(e^eps - 1 - eps)/eps^2 -> exp(-z) * (1 + eps/3 + O(eps^2))
    assert np.abs(c - np.exp(-z)).max() <= np.exp(2.0) * eps


@settings(max_examples=200, deadline=None)
@given(st.floats(-2.0, 8.0), st.floats(0.0, 2.0), st.floats(0.0, 20.0))
def test_surrogate_majorizes_everywhere_above_zmin(z_ref, t, offset):
    b, c = _surrogate_terms(np.array([z_ref]), np.array([t]), EPSILON)
    z = (z_ref - EPSILON) + offset

    def g(x):
        return np.exp(-x) + t * x

    gap = (g(z) - g(np.array([z_ref]))) - (b * (z - z_ref) + 0.5 * c * (z - z_ref) ** 2)
    assert gap[0] <= 1e-12


def test_prox_collapses_to_identity_for_tiny_sigma(noiseless_drf):
    p = np.array([8.0, 2.0])
    t = np.exp(-noiseless_drf.eval(np.array([10.0, 1.5]), 0))
    out = detector_agent_apply(p[None], t[None], np.array([1.0e6]), noiseless_drf.select([0]),
                               1e-9, 3)
    assert np.linalg.norm(out[0] - p) <= 1e-6


def test_scalar_fixed_point_at_mle():
    drf = scalar_linear_drf()
    t = np.array([np.exp(-2.0)])
    out = detector_agent_apply(np.array([[2.0]]), t[None], np.array([1.0e4]), drf.select([0]),
                               1.0, 5)
    assert out[0, 0] == pytest.approx(2.0, abs=1e-12)


def test_monotone_objective_on_affine_response():
    # with an affine response the linearization is exact, so every update whose
    # new response values stay in the majorized region [z_min, inf) must not
    # increase the prox objective; steps that leave the region (z moving down
    # by more than epsilon) carry no guarantee and are only counted
    drf = affine_drf()
    rng = np.random.default_rng(6)
    eps = detector.EPSILON
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
            pp = detector_agent_apply(tether[None], t[None], np.array([air]), drf.select([0]),
                                      sigma, p_prime=pp[None])[0]
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
        out = detector_agent_apply(tether[None], t[None], np.array([air]),
                                   noiseless_drf.select([0]), sigma)[0]
        assert obj(out) <= obj(tether) + 1e-9 * max(1.0, abs(obj(tether)))


def test_prox_matches_grid_polish_oracle(noiseless_drf):
    rng = np.random.default_rng(11)
    air = 2.0e4
    for trial in range(10):
        p_star = rng.uniform([1, 0.1], [30, 4])
        t = np.exp(-noiseless_drf.eval(p_star, 0)) * rng.uniform(0.95, 1.05, 8)
        tether = p_star + rng.normal(0, 0.3, 2)
        sigma = 10 ** rng.uniform(-1.5, 0.5)
        out = detector_agent_apply(tether[None], t[None], np.array([air]),
                                   noiseless_drf.select([0]), sigma, 50)[0]
        oracle = grid_polish_minimizer(prox_objective(noiseless_drf, t, air, tether, sigma),
                                       noiseless_drf.domain)
        assert np.abs(out - oracle).max() < 1e-6


def test_prox_large_sigma_approaches_unpenalized_minimum(noiseless_drf):
    p_star = np.array([14.0, 2.0])
    t = np.exp(-noiseless_drf.eval(p_star, 0))
    tether = p_star + np.array([0.5, -0.3])
    out = detector_agent_apply(tether[None], t[None], np.array([3.0e5]), noiseless_drf.select([0]),
                               1e4, 60)
    assert np.abs(out[0] - p_star).max() < 1e-5  # noiseless t: minimum sits at p_star


def test_rows_are_independent_and_permutable(noiseless_drf):
    rng = np.random.default_rng(12)
    m = 40
    p = rng.uniform([0, 0], [30, 4], size=(m, 2))
    drf = noiseless_drf.select(np.zeros(m, dtype=int))
    t = np.exp(-drf.eval_sino(p))
    air = np.full(m, 1.0e4)
    out = detector_agent_apply(p, t, air, drf, 0.7, 2)
    perm = rng.permutation(m)
    out_perm = detector_agent_apply(p[perm], t[perm], air[perm], drf, 0.7, 2)
    assert np.array_equal(out[perm], out_perm)


def test_agent_near_identity_at_rowwise_mle(noiseless_drf):
    rng = np.random.default_rng(13)
    m = 25
    p_true = rng.uniform([1, 0.1], [30, 4], size=(m, 2))
    drf = noiseless_drf.select(np.zeros(m, dtype=int))
    t = np.exp(-drf.eval_sino(p_true))
    air = np.full(m, 3.0e5)
    out = detector_agent_apply(p_true, t, air, drf, 1e4)
    assert np.abs(out - p_true).max() < 1e-6


def test_noiseless_rows_recover_truth_with_large_sigma(default_spectrum, basis_materials,
                                                       noiseless_drf):
    rng = np.random.default_rng(14)
    m = 50
    p_true = rng.uniform([0.5, 0.05], [25, 2], size=(m, 2))
    lam = expected_counts(default_spectrum, basis_materials, p_true,
                          default_spectrum.total_fluence)
    t = lam / default_spectrum.total_fluence
    air = np.full(m, 3.0e5)
    p = p_true + rng.normal(0, 0.2, size=(m, 2))  # warm start near truth
    out = detector_agent_apply(p, t, air, noiseless_drf.select(np.zeros(m, dtype=int)), 1e3, 50)
    assert np.abs(out - p_true).max() < 1e-4


def test_shape_mismatch_raises(noiseless_drf):
    with pytest.raises(Exception, match="rows"):
        detector_agent_apply(np.zeros((3, 2)), np.zeros((4, 8)), np.ones(3), noiseless_drf, 1.0)


@pytest.mark.parametrize("sigma, n_sub, message", [
    (0.0, 1, "sigma must be positive"), (-1.0, 1, "sigma must be positive"),
    (np.nan, 1, "sigma must be positive"), (1.0, 0, "at least one partial update"),
])
def test_sigma_and_partial_updates_are_checked(noiseless_drf, sigma, n_sub, message):
    with pytest.raises(ToolkitError, match=message):
        detector_agent_apply(np.ones((1, 2)), np.full((1, 8), 0.5), np.ones(1), noiseless_drf,
                             sigma, n_sub)


@pytest.mark.parametrize("mode", ["rise", "Hold", None])
def test_an_unknown_on_nonfinite_raises(noiseless_drf, mode):
    with pytest.raises(ToolkitError, match="on_nonfinite must be 'raise' or 'hold'"):
        detector_agent_apply(np.ones((1, 2)), np.full((1, 8), 0.5), np.ones(1), noiseless_drf,
                             1.0, on_nonfinite=mode)


@pytest.mark.parametrize("rows", [2, 4])
def test_p_prime_of_another_shape_raises(noiseless_drf, monkeypatch, rows):
    monkeypatch.setattr(detector, "_BLOCK_ROWS", 1)   # a longer p_prime must not be cut to p's rows
    with pytest.raises(ToolkitError, match="p_prime"):
        detector_agent_apply(np.ones((3, 2)), np.full((3, 8), 0.5), np.ones(3),
                             noiseless_drf, 1.0, p_prime=np.ones((rows, 2)))


@pytest.mark.filterwarnings("ignore:invalid value")
def test_nonfinite_raise_and_hold(noiseless_drf):
    p = np.array([[np.inf, 1.0]])
    t = np.full((1, 8), 0.5)
    drf = noiseless_drf.select([0])
    with pytest.raises(NumericError, match="non-finite"):
        detector_agent_apply(p, t, np.ones(1), drf, 1.0)
    held = detector_agent_apply(p, t, np.ones(1), drf, 1.0, on_nonfinite="hold")
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
    detector_agent_apply(p, np.full((1, 3), 0.5), np.ones(1), drf, 1.0)
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
    (True, (100,)),                # one view of 100 selected channels: one block
])
@pytest.mark.parametrize("n_sub", [1, 2])
def test_blocks_give_the_unblocked_result(per_channel_rows, monkeypatch, explicit, sizes, n_sub):
    drf, p, t, air, pp = per_channel_rows
    if explicit:
        drf = drf.select(np.arange(p.shape[0]) % N_CHAN)
    whole = detector_agent_apply(p, t, air, drf, 0.7, n_sub, p_prime=pp)
    seen = []
    eval_jac = DrfPolynomial.eval_jac

    def spy(self, rows, *args):
        seen.append(rows.shape[0])
        return eval_jac(self, rows, *args)

    monkeypatch.setattr(DrfPolynomial, "eval_jac", spy)
    monkeypatch.setattr(detector, "_BLOCK_ROWS", 30)
    blocked = detector_agent_apply(p, t, air, drf, 0.7, n_sub, p_prime=pp)
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
        detector_agent_apply(p, t, air, drf, 1.0, p_prime=pp)


@pytest.mark.filterwarnings("ignore:invalid value")
def noisy_rows(drf, n_views, seed):
    """Rows of `n_views` views under `drf`: noisy counts, tether and linearization
    point near a true state drawn from `ROW_RANGES`, and air totals."""
    rng = np.random.default_rng(seed)
    m = drf.n_channels * n_views
    p_true = rng.uniform(*ROW_RANGES[drf.n_materials], size=(m, drf.n_materials))
    t = np.exp(-drf.eval_sino(p_true)) * rng.uniform(0.95, 1.05, size=(m, drf.n_bins))
    tether = p_true + rng.normal(0.0, 0.3, size=p_true.shape)
    pp = p_true + rng.normal(0.0, 0.3, size=p_true.shape)
    return tether, t, pp, rng.uniform(1.0e4, 3.0e4, size=m)


@pytest.mark.filterwarnings("ignore:invalid value")
@pytest.mark.parametrize("n_mat, n_chan, shared, n_views, block_rows, n_sub", [
    (2, 7, False, 11, 30, 1),     # 7 sets, a block of 4 views, the last of 3
    (2, 97, False, 3, 200, 3),    # 97 sets (12 groups of 8 and one of 1), the last block of one view
    (2, 7, False, 4, 5, 1),       # a view longer than a block: one view per block
    (3, 5, False, 9, 20, 2),      # three materials, 5 sets, blocks of 4 views, the last of one
    (3, 5, True, 9, 20, 2),       # the same rows under one shared set
], ids=["7-11-30-1", "97-3-200-3", "7-4-5-1", "3mat-5-9-20-2", "3mat-shared-5-9-20-2"])
def test_set_major_blocks_give_each_row_its_one_row_result(noiseless_drf, monkeypatch, n_mat,
                                                           n_chan, shared, n_views, block_rows,
                                                           n_sub):
    drf = drf_of_sets(noiseless_drf if n_mat == 2 else three_material_drf(), n_chan, shared)
    assert drf.n_sets == (1 if shared else n_chan)
    tether, t, pp, air = noisy_rows(drf, n_views, n_chan)
    m = tether.shape[0]
    t[[3, m - 2]] = 0.0          # empty rows hold their tether
    tether[m // 2, 1] = np.inf   # held at its linearization point
    monkeypatch.setattr(detector, "_BLOCK_ROWS", block_rows)
    out = detector_agent_apply(tether, t, air, drf, 0.7, n_sub, p_prime=pp, on_nonfinite="hold")
    assert np.array_equal(out[[3, m - 2]], tether[[3, m - 2]])
    assert np.array_equal(out[m // 2], pp[m // 2])
    for row in range(m):
        one = detector_agent_apply(tether[row][None], t[row][None], air[row][None],
                                   drf.select([row % n_chan]), 0.7, n_sub, p_prime=pp[row][None],
                                   on_nonfinite="hold")
        assert np.allclose(out[row], one[0], rtol=1e-13, atol=1e-13), row


@pytest.mark.parametrize("n_mat", [2, 3])
def test_an_update_solves_the_surrogate_system(noiseless_drf, n_mat):
    # per row: (J^T diag(c) J + I/alpha^2) x = J^T (c J pp - b) + tether/alpha^2,
    # with b and c the surrogate's gradient and curvature at phi(pp)
    drf = drf_of_sets(noiseless_drf if n_mat == 2 else three_material_drf(), 5, False)
    tether, t, pp, air = noisy_rows(drf, 4, 50 + n_mat)
    sigma = 0.7
    phi, jac = drf.eval_jac(pp)
    e = np.exp(-phi)
    b, c = t - e, 2.0 * e * (np.expm1(EPSILON) - EPSILON) / EPSILON**2
    inv_a2 = 1.0 / (sigma**2 * air)
    h = np.einsum("mki,mk,mkj->mij", jac, c, jac) + inv_a2[:, None, None] * np.eye(n_mat)
    rhs = np.einsum("mki,mk->mi", jac, c * np.einsum("mkj,mj->mk", jac, pp) - b)
    dense = np.linalg.solve(h, (rhs + inv_a2[:, None] * tether)[..., None])[..., 0]
    out = detector_agent_apply(tether, t, air, drf, sigma, 1, p_prime=pp)
    assert np.allclose(out, dense, rtol=1e-12, atol=1e-12)


def test_rows_that_are_not_whole_views_raise(per_channel_rows):
    drf, p, t, air, pp = per_channel_rows
    with pytest.raises(ToolkitError, match="not divisible by channel count"):
        detector_agent_apply(p[:-1], t[:-1], air[:-1], drf, 1.0, p_prime=pp[:-1])


def test_agent_memory_does_not_grow_with_rows(per_channel_rows):
    drf = per_channel_rows[0]
    rng = np.random.default_rng(32)

    def peak(n_rows):
        p = rng.uniform([1.0, 0.1], [30.0, 4.0], size=(n_rows, 2))
        t = np.exp(-drf.eval_sino(p))
        return traced_peak(detector_agent_apply, p, t, np.full(n_rows, 2.0e4), drf, 1.0)

    one = peak(detector._BLOCK_ROWS)
    assert peak(4 * detector._BLOCK_ROWS) <= 1.5 * one


def test_a_pass_runs_in_one_reused_workspace(noiseless_drf):
    # one block of 16,320 rows: 170 views of a 96-channel per-channel calibration
    theta = np.stack([noiseless_drf.theta[0] * (1.0 + 0.002 * c) for c in range(96)])
    drf = DrfPolynomial(theta=theta, order=noiseless_drf.order, n_materials=2,
                        domain=noiseless_drf.domain, basis_scale=noiseless_drf.basis_scale)
    p = np.random.default_rng(33).uniform([1.0, 0.1], [30.0, 4.0], size=(170 * 96, 2))
    t = np.exp(-drf.eval_sino(p))
    args = (p, t, np.full(p.shape[0], 2.0e4), drf, 1.0)
    work = Workspace()
    # all 96 sets' basis table alone is 9.8 MB; 8 at a time it is 0.8 MB
    assert traced_peak(detector_agent_apply, *args, work=work) < 10e6
    assert traced_peak(detector_agent_apply, *args, work=work) < 1e6
