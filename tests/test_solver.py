import numpy as np
import pytest

from helpers import grid_polish_minimizer, prox_objective, traced_peak
from pcmd.calibration import DrfPolynomial, calibrate_drf
from pcmd.errors import NumericError, ToolkitError
from pcmd.geometry import ScanGeometry
from pcmd.priors import GaussianPrior
from pcmd import detector, solver
from pcmd.simulate import expected_counts, sample_poisson
from pcmd.solver import (MaceConfig, MleConfig, equilibrium_residual, mann_iterate,
                         mle_decompose, run_mace)


def quadratic_prox(q_mat, anchor, sigma):
    m = q_mat + np.eye(q_mat.shape[0]) / sigma**2

    def prox(p):
        return np.linalg.solve(m, q_mat @ anchor + p.ravel() / sigma**2).reshape(p.shape)

    return prox


def random_spd(rng, n):
    a = rng.normal(size=(n, n))
    return a @ a.T + np.eye(n)


def test_identity_prior_converges_to_unconstrained_minimum():
    rng = np.random.default_rng(0)
    n = 4
    qf = random_spd(rng, n)
    af = rng.normal(size=n)
    res = mann_iterate(np.zeros((1, n)), quadratic_prox(qf, af, 0.9),
                       lambda p: p, rho=0.8, n_iter=300)
    assert np.abs(res.p - af).max() < 1e-8


@pytest.mark.parametrize("rho", [0.2, 0.5, 0.8])
def test_two_quadratic_agents_reach_map_solution(rho):
    rng = np.random.default_rng(1)
    n = 5
    qf, qh = random_spd(rng, n), random_spd(rng, n)
    af, ah = rng.normal(size=n), rng.normal(size=n)
    map_sol = np.linalg.solve(qf + qh, qf @ af + qh @ ah)
    res = mann_iterate(np.zeros((1, n)), quadratic_prox(qf, af, 0.7),
                       quadratic_prox(qh, ah, 0.7), rho=rho, n_iter=200)
    assert np.abs(res.p - map_sol).max() < 1e-8


def test_fixed_point_stays_fixed():
    rng = np.random.default_rng(2)
    n = 3
    qf, qh = random_spd(rng, n), random_spd(rng, n)
    af, ah = rng.normal(size=n), rng.normal(size=n)
    sigma = 0.8
    f, h = quadratic_prox(qf, af, sigma), quadratic_prox(qh, ah, sigma)
    settled = mann_iterate(np.zeros((1, n)), f, h, 0.5, 500)
    res = mann_iterate(np.zeros((1, n)), f, h, 0.5, 530)
    assert np.abs(res.p - settled.p).max() < 1e-10
    assert res.residuals[-1] < 1e-10


def test_single_iteration_matches_hand_trace():
    f = lambda p: 0.5 * p + 1.0
    h = lambda p: 2.0 * p - 3.0
    p0 = np.array([[4.0, -1.0]])
    rho = 0.8
    res = mann_iterate(p0, f, h, rho, 1)
    p1 = 2.0 * h(p0) - p0
    pf = f(p1)
    p1b = 2.0 * pf - p1
    pc = (1.0 - rho) * p0 + rho * p1b
    assert np.array_equal(res.p, pf)
    assert res.residuals[0] == equilibrium_residual(pf, h(p0))
    # the second iteration starts from the relaxed state pc
    assert np.array_equal(mann_iterate(p0, f, h, rho, 2).p, f(2.0 * h(pc) - pc))


def test_equilibrium_residual_cases():
    x = np.array([1.0, 2.0])
    assert equilibrium_residual(x, x) == 0.0
    assert equilibrium_residual(np.zeros(2), np.zeros(2)) == 0.0
    assert equilibrium_residual(x, np.zeros(2)) == np.inf
    assert equilibrium_residual(np.array([3.0, 4.0]), np.array([0.0, 5.0])) \
        == pytest.approx(np.sqrt(10.0) / 5.0, rel=1e-15)


def test_residuals_decrease_geometrically_on_quadratic_problem():
    rng = np.random.default_rng(3)
    n = 4
    qf, qh = random_spd(rng, n), random_spd(rng, n)
    af, ah = rng.normal(size=n), rng.normal(size=n)
    res = mann_iterate(np.zeros((1, n)), quadratic_prox(qf, af, 0.7),
                       quadratic_prox(qh, ah, 0.7), 0.8, 60)
    r = np.array(res.residuals)
    assert r[0] > 0
    ratios = r[1:40] / r[:39]
    assert np.median(ratios) < 0.9  # contraction rate bounded away from 1


@pytest.mark.filterwarnings("ignore:invalid value")
def test_nonfinite_state_aborts_with_iteration_index():
    f = lambda p: p * 2.0
    h = lambda p: p * np.inf
    with pytest.raises(NumericError, match="iteration 0"):
        mann_iterate(np.ones((1, 2)), f, h, 0.5, 3)


def test_mace_config_validation():
    with pytest.raises(ToolkitError, match="rho"):
        MaceConfig(prior=GaussianPrior([1.0, 1.0]), rho=1.0)
    with pytest.raises(ToolkitError, match="iteration"):
        MaceConfig(prior=GaussianPrior([1.0, 1.0]), n_iter=0)


@pytest.mark.parametrize("sigma, n_sub, message", [
    (0.0, 1, "sigma must be positive"), (-1.0, 1, "sigma must be positive"),
    (np.nan, 1, "sigma must be positive"), (1.0, 0, "at least one partial update"),
])
def test_configs_check_the_detector_agent_settings_when_built(sigma, n_sub, message):
    # before any solve starts, not when the agent first runs after the MLE start
    with pytest.raises(ToolkitError, match=message):
        MaceConfig(prior=GaussianPrior([1.0, 1.0]), sigma=sigma, n_sub=n_sub, init=MleConfig())
    if n_sub == 1:
        with pytest.raises(ToolkitError, match=message):
            MleConfig(sigma=sigma)


# --- maximum-likelihood decomposition against the simulator truth ---

def noiseless_rows(spectrum, materials, p_true):
    lam = expected_counts(spectrum, materials, p_true, spectrum.total_fluence)
    return lam / spectrum.total_fluence


def test_grid_search_recovers_on_grid_points(default_spectrum, basis_materials, noiseless_drf):
    grid_pts = (41, 41)
    axes = [np.linspace(0, 40, 41), np.linspace(0, 5, 41)]
    rng = np.random.default_rng(4)
    idx = rng.integers(0, 41, size=(30, 2))
    p_true = np.stack([axes[0][idx[:, 0]], axes[1][idx[:, 1]]], axis=1)
    t = noiseless_rows(default_spectrum, basis_materials, p_true)
    from pcmd.solver import _grid_search

    found = _grid_search(t, noiseless_drf, grid_pts)
    assert np.array_equal(found, p_true)


def full_matrix_grid_search(t_sino, drf, grid_points):
    """Reference: every row's whole loss over the grid in one matrix, then argmin."""
    axes = [np.linspace(lo, up, n) for lo, up, n in
            zip(drf.domain.lower, drf.domain.upper, grid_points)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    phi = np.stack([drf.eval(pts, channel=c) for c in range(drf.n_channels)])   # (C, G, K)
    row_phi = phi[np.arange(t_sino.shape[0]) % drf.n_channels]                 # (M, G, K)
    loss = np.exp(-row_phi).sum(axis=2) + np.einsum("mgk,mk->mg", row_phi, t_sino)
    return pts[np.argmin(loss, axis=1)]


@pytest.mark.parametrize("n_chan", [1, 4])
def test_blocked_grid_search_equals_full_matrix_argmin(noiseless_drf, noisy_cal_study,
                                                       monkeypatch, n_chan):
    theta = np.stack([noiseless_drf.theta[0] * (1.0 + 0.02 * c) for c in range(n_chan)])
    drf = DrfPolynomial(theta=theta, order=noiseless_drf.order, n_materials=2,
                        domain=noiseless_drf.domain, basis_scale=noiseless_drf.basis_scale)
    rng = np.random.default_rng(21)
    p_true = rng.uniform([0.0, 0.0], [40.0, 5.0], size=(30 * n_chan, 2))
    t = np.exp(-drf.eval_sino(p_true)) * rng.uniform(0.9, 1.1, size=(p_true.shape[0], 8))
    # a view without counts: only the folded attenuation row scores it, and its
    # exact minimum is the attenuation-only corner
    t = np.concatenate([t, np.zeros((n_chan, 8))])
    grid = (21, 21)
    monkeypatch.setattr(solver, "_GRID_BLOCK", 4 * 21 * 21)   # 4 rows per block
    found = solver._grid_search(t, drf, grid)
    assert np.array_equal(found, full_matrix_grid_search(t, drf, grid))
    assert np.array_equal(found[-n_chan:], np.tile(drf.domain.upper, (n_chan, 1)))
    if n_chan == 4:   # the noisy four-channel study at the shipped grid and block size
        monkeypatch.undo()
        drf, t = noisy_cal_study
        reference = [full_matrix_grid_search(t[i:i + 100], drf, (41, 41))   # 100 rows at a time
                     for i in range(0, len(t), 100)]
        assert np.array_equal(solver._grid_search(t, drf, (41, 41)), np.concatenate(reference))


def test_single_channel_grid_search_memory_is_bounded(noiseless_drf):
    t = np.random.default_rng(22).uniform(0.0, 0.3, size=(20000, noiseless_drf.n_bins))
    peak = traced_peak(solver._grid_search, t, noiseless_drf, (41, 41))
    assert peak < 64 * 2**20   # the whole 20,000 x 1,681 loss would be 269 MB


def test_grid_search_memory_does_not_grow_with_the_set_count(noiseless_drf):
    t = np.random.default_rng(25).uniform(0.0, 0.3, size=(64 * 20, noiseless_drf.n_bins))
    peaks = []
    for n_sets in (4, 64):
        theta = np.stack([noiseless_drf.theta[0] * (1.0 + 0.001 * c) for c in range(n_sets)])
        drf = DrfPolynomial(theta=theta, order=noiseless_drf.order, n_materials=2,
                            domain=noiseless_drf.domain, basis_scale=noiseless_drf.basis_scale)
        assert drf.n_sets == n_sets
        peaks.append(traced_peak(solver._grid_search, t, drf, (41, 41)))
    # phi of all 64 sets at 41 x 41 points would be 6.9 MB on its own
    assert peaks[1] < 2 * 2**20
    assert peaks[1] < 1.25 * peaks[0]


@pytest.fixture(scope="module")
def noisy_cal_study(default_spectrum, basis_materials):
    """A four-channel calibration fitted to noisy slab scans, and 700 noisy rows per channel."""
    geometry = ScanGeometry(mode="parallel", n_views=1, n_channels=4, spacing=0.5)
    drf = calibrate_drf(default_spectrum, basis_materials, geometry, noise=True, seed=3)
    p = np.random.default_rng(23).uniform([0.0, 0.0], [30.0, 4.0], size=(700 * 4, 2))
    lam = expected_counts(default_spectrum, basis_materials, p, 2.0e4)
    return drf, sample_poisson(lam, seed=24) / 2.0e4


def test_grid_search_points_do_not_depend_on_the_block_size(noisy_cal_study, monkeypatch):
    drf, t = noisy_cal_study
    found = []
    for block in (1 << 19, 1 << 16):   # 311 and 38 rows of 41 x 41 points per product
        monkeypatch.setattr(solver, "_GRID_BLOCK", block)
        found.append(solver._grid_search(t, drf, (41, 41)))
    assert np.array_equal(*found)


def test_mle_recovers_off_grid_truth(default_spectrum, basis_materials, noiseless_drf):
    rng = np.random.default_rng(5)
    p_true = rng.uniform([0.3, 0.05], [25, 2], size=(100, 2))
    t = noiseless_rows(default_spectrum, basis_materials, p_true)
    res = mle_decompose(t, np.full(100, 3.0e5), noiseless_drf,
                        MleConfig(n_iter=50, sigma=1.0e3))
    assert np.abs(res.p - p_true).max() < 1e-4
    assert res.flagged_rows.size == 0


def test_degenerate_single_point_grid_refines_from_that_point(default_spectrum,
                                                              basis_materials, noiseless_drf):
    from pcmd.detector import detector_agent_apply

    p_true = np.array([[12.0, 1.2]])
    t = noiseless_rows(default_spectrum, basis_materials, p_true)
    air = np.array([1.0e4])
    cfg = MleConfig(grid_points=(1, 1), n_iter=10, sigma=1.0e3)
    res = mle_decompose(t, air, noiseless_drf, cfg)
    # single-point grid spans the domain bounds -> starts at the lower corner
    p = np.array([[0.0, 0.0]])
    for _ in range(10):
        p = detector_agent_apply(p, t, air, noiseless_drf.select([0]), 1.0e3, p_prime=p)
    assert np.array_equal(res.p, p)


@pytest.mark.parametrize("grid_points", [(5,), (5, 5, 5)])
def test_a_grid_without_one_axis_per_material_raises(default_spectrum, basis_materials,
                                                     noiseless_drf, grid_points):
    t = noiseless_rows(default_spectrum, basis_materials, np.full((4, 2), [10.0, 1.0]))
    with pytest.raises(ToolkitError, match=f"needs 2 point counts.*got {len(grid_points)}"):
        mle_decompose(t, np.full(4, 3.0e5), noiseless_drf, MleConfig(grid_points=grid_points))


def test_mle_matches_grid_polish_oracle_rowwise(default_spectrum, basis_materials,
                                                noiseless_drf):
    rng = np.random.default_rng(6)
    m = 10
    p_star = rng.uniform([2, 0.2], [25, 2], size=(m, 2))
    lam = expected_counts(default_spectrum, basis_materials, p_star, 2.0e4)
    from pcmd.simulate import sample_poisson

    counts = sample_poisson(lam, seed=99).astype(float)
    t = counts / 2.0e4
    res = mle_decompose(t, np.full(m, 2.0e4), noiseless_drf,
                        MleConfig(n_iter=200, sigma=1.0e3))
    for i in range(m):
        # huge-sigma prox objective == plain likelihood up to a vanishing tether
        obj = prox_objective(noiseless_drf, t[i], 2.0e4, res.p[i], 1.0e9)
        oracle = grid_polish_minimizer(obj, noiseless_drf.domain, grid_n=121)
        assert np.abs(res.p[i] - oracle).max() < 1e-6


def test_divergent_rows_are_clipped_back(noiseless_drf):
    # a transmission of 1e-12 in every bin puts the likelihood minimum far
    # outside the domain: the refinement carries these rows past twice the
    # domain, the only rule that flags a finite row with counts
    t = np.full((3, 8), 1.0e-12)
    res = mle_decompose(t, np.full(3, 1.0e4), noiseless_drf, MleConfig(n_iter=30))
    assert res.flagged_rows.size == 3
    assert np.all(np.isfinite(res.p))
    # the clip-prior rescue brings them back near the calibration boundary
    lo, up = noiseless_drf.domain.lower, noiseless_drf.domain.upper
    assert np.all(res.p >= lo - 0.5) and np.all(res.p <= up + 0.5)


def test_rows_without_counts_keep_their_grid_search_start(noiseless_drf):
    # no finite likelihood minimum: every pass holds these rows at their tether,
    # the grid point where the attenuation alone is least
    t = np.zeros((3, 8))
    res = mle_decompose(t, np.full(3, 1.0e4), noiseless_drf, MleConfig(n_iter=30))
    assert res.steps == [0.0]
    assert res.flagged_rows.tolist() == [0, 1, 2]
    assert np.array_equal(res.p, np.tile(noiseless_drf.domain.upper, (3, 1)))
    t[1] = 1.0e-12   # beside a row that runs off the domain and is rescued
    mixed = mle_decompose(t, np.full(3, 1.0e4), noiseless_drf, MleConfig(n_iter=30))
    assert mixed.flagged_rows.tolist() == [0, 1, 2]
    assert np.array_equal(mixed.p[[0, 2]], res.p[[0, 2]])


@pytest.mark.parametrize("slope", [1.0, 2.9])
def test_rows_without_counts_are_flagged_whatever_the_slope(noiseless_drf, slope):
    # the detector agent holds these rows at their grid-search start, inside
    # the domain, so only the no-count rule flags them
    drf = DrfPolynomial(theta=noiseless_drf.theta * slope, order=noiseless_drf.order,
                        n_materials=2, domain=noiseless_drf.domain,
                        basis_scale=noiseless_drf.basis_scale)
    t = np.exp(-drf.eval(np.linspace([2.0, 0.2], [30.0, 4.0], 6)))
    t[[1, 4]] = 0.0
    res = mle_decompose(t, np.full(6, 3.0e5), drf, MleConfig(n_iter=5))
    assert res.flagged_rows.tolist() == [1, 4]
    assert np.abs(res.p[[1, 4]] - drf.domain.upper).max() < 1e-3


def test_rescue_in_chunks_gives_the_single_chunk_result(noiseless_drf, monkeypatch):
    # four channels whose coefficients differ, so each chunk selects its rows' own
    theta = np.stack([noiseless_drf.theta[0] * (1.0 + 0.02 * c) for c in range(4)])
    drf = DrfPolynomial(theta=theta, order=noiseless_drf.order, n_materials=2,
                        domain=noiseless_drf.domain, basis_scale=noiseless_drf.basis_scale)
    rng = np.random.default_rng(21)
    p_true = rng.uniform([1.0, 0.1], [30.0, 4.0], size=(10 * 4, 2))
    t = np.exp(-drf.eval_sino(p_true))
    t[rng.choice(t.shape[0], size=12, replace=False)] = 1.0e-12   # rows that run off the domain
    air = np.full(t.shape[0], 1.0e4)
    one = mle_decompose(t, air, drf, MleConfig(n_iter=30))
    monkeypatch.setattr(detector, "_BLOCK_ROWS", 5)   # chunks of 5, 5 and 2 flagged rows
    chunked = mle_decompose(t, air, drf, MleConfig(n_iter=30))
    assert one.flagged_rows.size == 12
    assert np.array_equal(chunked.flagged_rows, one.flagged_rows)
    assert np.abs(chunked.p - one.p).max() <= 1e-12


# --- early stop of the refinement loop ---

def hand_refinement(t, air, drf, n_iter):
    """The refinement loop without a stop: n_iter held detector passes from the grid."""
    from pcmd.detector import detector_agent_apply
    from pcmd.solver import _grid_search

    p = _grid_search(t, drf, MleConfig().grid_points)
    for _ in range(n_iter):
        p = detector_agent_apply(p, t, air, drf, 1.0e3, p_prime=p, on_nonfinite="hold")
    return p


@pytest.fixture(scope="module")
def noiseless_study(default_spectrum, basis_materials):
    rng = np.random.default_rng(11)
    p_true = rng.uniform([0.3, 0.05], [25, 2], size=(40, 2))
    return noiseless_rows(default_spectrum, basis_materials, p_true), np.full(40, 3.0e5)


def test_zero_stop_matches_every_pass_bit_for_bit(noiseless_study, noiseless_drf,
                                                 monkeypatch):
    monkeypatch.setattr(solver, "_STOP_CM", 0.0)
    t, air = noiseless_study
    res = mle_decompose(t, air, noiseless_drf, MleConfig(n_iter=30))
    assert np.array_equal(res.p, hand_refinement(t, air, noiseless_drf, 30))
    assert res.flagged_rows.size == 0


def test_default_stop_ends_early_within_tolerance(noiseless_study, noiseless_drf):
    t, air = noiseless_study
    res = mle_decompose(t, air, noiseless_drf, MleConfig(n_iter=30))
    assert np.abs(res.p - hand_refinement(t, air, noiseless_drf, 30)).max() < 1e-9
    assert 1 <= len(res.steps) < 30
    assert res.steps[-1] <= solver._STOP_CM
    assert all(s > solver._STOP_CM for s in res.steps[:-1])


def test_steps_record_the_largest_move_of_each_pass(noiseless_study, noiseless_drf,
                                                    monkeypatch):
    monkeypatch.setattr(solver, "_STOP_CM", 0.0)
    t, air = noiseless_study
    res = mle_decompose(t, air, noiseless_drf, MleConfig(n_iter=3))
    moves = [np.abs(hand_refinement(t, air, noiseless_drf, i + 1)
                    - hand_refinement(t, air, noiseless_drf, i)).max() for i in range(3)]
    assert res.steps == moves


def test_early_stop_keeps_the_divergent_row_rescue(noiseless_drf, monkeypatch):
    t = np.full((3, 8), 1.0e-12)
    air = np.full(3, 1.0e4)
    res = mle_decompose(t, air, noiseless_drf, MleConfig(n_iter=30))
    monkeypatch.setattr(solver, "_STOP_CM", 0.0)
    every = mle_decompose(t, air, noiseless_drf, MleConfig(n_iter=30))
    assert len(res.steps) == 30  # rows running off the domain keep moving
    assert np.array_equal(res.flagged_rows, every.flagged_rows)
    assert res.flagged_rows.size == 3
    assert np.array_equal(res.p, every.p)


STOP = solver._STOP_CM


@pytest.mark.parametrize("steps, n_iter, same", [
    ([1.0, 1e-3, STOP], 3, True),           # converged at the cap
    ([1.0, 1e-3, STOP / 2], 8, True),       # converged, so a higher cap runs the same passes
    ([1.0, 1e-3, STOP / 2], 2, False),      # a lower cap stops before convergence
    ([1.0, 1e-3, 1e-6], 3, True),           # the same cap, unconverged
    ([1.0, 1e-3, 1e-6], 5, False),          # a higher cap runs more passes
    ([1.0, 1e-3, 1e-6], 2, False),
    ([1.0, STOP, 1e-6], 3, False),          # the stop rule would have ended at pass 1
    ([], 1, False),
])
def test_same_mle_at_cap(steps, n_iter, same):
    assert solver.same_mle_at_cap(steps, n_iter) is same


def test_same_mle_at_cap_agrees_with_rerunning_the_mle(noiseless_study, noiseless_drf):
    t, air = noiseless_study
    ran = mle_decompose(t, air, noiseless_drf, MleConfig(n_iter=30))
    k = len(ran.steps)
    for n_iter in (k - 1, k, k + 1, 30):
        capped = mle_decompose(t, air, noiseless_drf, MleConfig(n_iter=n_iter))
        assert solver.same_mle_at_cap(ran.steps, n_iter) == np.array_equal(capped.p, ran.p)
    assert solver.same_mle_at_cap(ran.steps, 30) and not solver.same_mle_at_cap(ran.steps, k - 1)


def test_run_mace_reports_its_mle_start(default_spectrum, basis_materials, noiseless_drf):
    p_true = np.tile([[10.0, 1.0]], (1, 4, 1))
    t = noiseless_rows(default_spectrum, basis_materials, p_true[0])[None]
    cfg = MaceConfig(prior=lambda p: p, n_iter=2, init=MleConfig(n_iter=15))
    res = run_mace(t, np.full((1, 4), 1.0e4), noiseless_drf, cfg)
    assert 1 <= len(res.mle_init.steps) < 15
    explicit = MaceConfig(prior=cfg.prior, n_iter=2, init=p_true.copy())
    assert run_mace(t, np.full((1, 4), 1.0e4), noiseless_drf, explicit).mle_init is None


# --- consensus equilibrium on simulated rows ---

def test_run_mace_identity_prior_stays_near_mle(default_spectrum, basis_materials,
                                                noiseless_drf):
    rng = np.random.default_rng(7)
    m = 24
    p_true = rng.uniform([2, 0.2], [20, 1.5], size=(m, 2))
    t = noiseless_rows(default_spectrum, basis_materials, p_true)
    air = np.full((1, m), 3.0e5)
    cfg = MaceConfig(prior=lambda p: p, rho=0.8, n_iter=40, sigma=10.0,
                     init=MleConfig(n_iter=15))
    res = run_mace(t[None], air, noiseless_drf, cfg)
    assert np.abs(res.p[0] - p_true).max() < 1e-4
    assert len(res.residuals) == 40


def test_run_mace_explicit_init_and_shape_checks(default_spectrum, basis_materials,
                                                 noiseless_drf):
    m = 6
    p_true = np.tile([[10.0, 1.0]], (m, 1))
    t = noiseless_rows(default_spectrum, basis_materials, p_true).reshape(2, 3, -1)
    air = np.full((2, 3), 1.0e4)
    cfg = MaceConfig(prior=lambda p: p, rho=0.8, n_iter=2,
                     init=p_true.reshape(2, 3, 2))
    res = run_mace(t, air, noiseless_drf, cfg)
    assert res.p.shape == (2, 3, 2)
    bad = MaceConfig(prior=lambda p: p, init=np.zeros((2, 4, 2)))
    with pytest.raises(ToolkitError, match="init"):
        run_mace(t, air, noiseless_drf, bad)


def test_run_mace_gaussian_prior_smooths_noisy_rows(default_spectrum, basis_materials,
                                                    noiseless_drf):
    rng = np.random.default_rng(8)
    v, c = 16, 16
    m = v * c
    p_true = np.tile([[15.0, 1.0]], (m, 1))
    air = 1.0e4
    lam = expected_counts(default_spectrum, basis_materials, p_true, air)
    from pcmd.simulate import sample_poisson

    t = sample_poisson(lam, seed=3).astype(float) / air
    mle = mle_decompose(t, np.full(m, air), noiseless_drf, MleConfig(n_iter=30))
    cfg = MaceConfig(prior=GaussianPrior([2.0, 2.0]), rho=0.8, n_iter=15, sigma=0.1,
                     init=MleConfig(n_iter=15))
    mace = run_mace(t.reshape(v, c, -1), np.full((v, c), air), noiseless_drf, cfg)
    assert mace.p[..., 0].std() < 0.35 * mle.p[:, 0].std()
    assert abs(mace.p[..., 0].mean() - mle.p[:, 0].mean()) < 0.02 * abs(mle.p[:, 0].mean())


def test_mle_on_a_view_channel_cube_equals_the_row_call_bit_for_bit(default_spectrum,
                                                                    basis_materials,
                                                                    noiseless_drf):
    rng = np.random.default_rng(12)
    p_true = rng.uniform([0.3, 0.05], [25, 2], size=(12, 2))
    t = noiseless_rows(default_spectrum, basis_materials, p_true)
    t[[2, 7]] = 1.0e-12   # two rows for the clip-prior rescue
    air = rng.uniform(1.0e4, 3.0e5, size=12)
    rows = mle_decompose(t, air, noiseless_drf, MleConfig(n_iter=20))
    cube = mle_decompose(t.reshape(3, 4, -1), air.reshape(3, 4), noiseless_drf,
                         MleConfig(n_iter=20))
    assert cube.p.shape == (3, 4, 2)
    assert np.array_equal(cube.p, rows.p.reshape(3, 4, 2))
    assert np.array_equal(cube.flagged_rows, rows.flagged_rows)
    assert rows.flagged_rows.tolist() == [2, 7] and cube.steps == rows.steps


@pytest.mark.parametrize("sigma", [0.08, 1.0])
def test_mace_fills_rows_without_counts_from_their_neighbours(default_spectrum, basis_materials,
                                                             sigma):
    # four neighbouring readings of one view hold no counts in any bin; they
    # start from the view's nearest rows with counts, and the detector agent
    # leaves them at their tether, so only the prior moves them
    v, c, air = 12, 16, 2.0e4
    drf = calibrate_drf(default_spectrum, basis_materials,
                        ScanGeometry(mode="parallel", n_views=1, n_channels=c, spacing=0.5),
                        noise=True, seed=3)
    views, chans = np.meshgrid(np.arange(v), np.arange(c), indexing="ij")
    p_true = np.stack([18.0 + 0.1 * chans + 0.05 * views, 1.1 + 0.01 * views], axis=-1)
    lam = expected_counts(default_spectrum, basis_materials, p_true.reshape(-1, 2), air)
    t = (sample_poisson(lam, seed=31) / air).reshape(v, c, -1)
    t[6, 6:10] = 0.0
    cfg = MaceConfig(prior=GaussianPrior([[1.5, 1.2], [1.5, 1.2]]), n_iter=5, sigma=sigma,
                     init=MleConfig(n_iter=3))
    res = run_mace(t, np.full((v, c), air), drf, cfg)
    assert res.mle_init.flagged_rows.tolist() == [6 * c + ch for ch in range(6, 10)]
    empty = res.p[6, 6:10]
    assert np.all(empty >= drf.domain.lower) and np.all(empty <= drf.domain.upper)
    neighbours = res.p[[4, 5, 7, 8], 6:10, 1].mean(axis=0)   # the same channels, two views each side
    assert np.abs(empty[:, 1] - neighbours).max() < 0.5


def test_run_mace_hands_a_bare_callable_prior_the_cube(default_spectrum, basis_materials,
                                                      noiseless_drf):
    p_true = np.tile([10.0, 1.0], (2, 3, 1))
    t = noiseless_rows(default_spectrum, basis_materials, p_true.reshape(6, 2))
    shapes = []
    cfg = MaceConfig(prior=lambda p: shapes.append(p.shape) or p, n_iter=3, init=p_true)
    res = run_mace(t.reshape(2, 3, -1), np.full((2, 3), 1.0e4), noiseless_drf, cfg)
    assert shapes == [(2, 3, 2)] * 3 and res.p.shape == (2, 3, 2)


@pytest.mark.parametrize("prior", [lambda p: p[:, :, :1], lambda p: p.sum(axis=2)],
                         ids=["one-plane", "summed-planes"])
def test_run_mace_rejects_a_prior_that_changes_the_shape(default_spectrum, basis_materials,
                                                         noiseless_drf, prior):
    p_true = np.tile([10.0, 1.0], (2, 3, 1))
    t = noiseless_rows(default_spectrum, basis_materials, p_true.reshape(6, 2))
    cfg = MaceConfig(prior=prior, n_iter=3, init=p_true)
    with pytest.raises(ToolkitError, match=r"prior: returned shape .* sinogram shape \(2, 3, 2\)"):
        run_mace(t.reshape(2, 3, -1), np.full((2, 3), 1.0e4), noiseless_drf, cfg)


def test_run_mace_rejects_transmission_rows(default_spectrum, basis_materials, noiseless_drf):
    t = noiseless_rows(default_spectrum, basis_materials, np.tile([10.0, 1.0], (6, 1)))
    cfg = MaceConfig(prior=lambda p: p, n_iter=2)
    with pytest.raises(ToolkitError, match=r"mace: transmission must be \(view, channel, bin\)"):
        run_mace(t, np.full(6, 1.0e4), noiseless_drf, cfg)
