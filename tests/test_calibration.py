import os

import numpy as np
import pytest

from helpers import exact_phi, traced_peak
from pcmd import calibration
from pcmd.calibration import (DEFAULT_DOMAIN, CalibrationDomain, DrfPolynomial, calibrate_drf,
                              fit_drf, load_calibration, measure_drf, save_calibration,
                              slab_scan_protocol)
from pcmd.errors import NumericError, PhotonStarvationError, ToolkitError
from pcmd.geometry import ScanGeometry
from pcmd.workspace import Workspace


def test_measure_drf_equal_split_gives_log_k():
    k = 8
    counts = np.full((1, k), 1000.0 / k)
    phi = measure_drf(counts, air_total=1000.0)
    assert np.allclose(phi, np.log(k), atol=1e-14)


def test_measure_drf_uniform_attenuation():
    c = 2.7
    counts = 5000.0 * np.exp(-c) * np.ones((4, 6))
    assert np.allclose(measure_drf(counts, 5000.0), c, atol=1e-14)


def test_measure_drf_zero_counts_names_the_pair():
    counts = np.ones((3, 4))
    counts[2, 1] = 0.0
    with pytest.raises(PhotonStarvationError, match=r"\(2, 1\)"):
        measure_drf(counts, 100.0)


def test_domain_grid_includes_the_bounds_with_the_last_material_fastest():
    pts = CalibrationDomain(lower=[0.0, 1.0], upper=[40.0, 5.0]).grid((3, 2))
    assert np.array_equal(pts, [[0, 1], [0, 5], [20, 1], [20, 5], [40, 1], [40, 5]])


def test_domain_grid_needs_at_least_one_point_per_axis():
    with pytest.raises(ToolkitError, match=r"needs 2 point counts.*got 2: \[5, 0\]"):
        DEFAULT_DOMAIN.grid((5, 0))


def test_calibration_scans_the_grid_of_the_domain_it_fits(default_spectrum, basis_materials):
    geo = ScanGeometry(mode="fan", n_views=1, n_channels=3, spacing=4.0, sid=20.0, sdd=40.0)
    domain = CalibrationDomain(lower=[1.0, 0.5], upper=[30.0, 4.0])
    drf = calibrate_drf(default_spectrum, basis_materials, geo, order=3, domain=domain,
                        points_per_axis=(6, 5), repeats=7, seed=4)
    points, counts = slab_scan_protocol(default_spectrum, basis_materials, domain.grid((6, 5)),
                                        geo, repeats=7, seed=4)
    refit = fit_drf(points, measure_drf(counts, 1.0e6), order=3, domain=domain)
    assert drf.domain is domain
    assert np.array_equal(drf.theta, refit.theta)
    assert np.array_equal(drf.bin_edges, default_spectrum.bin_edges)


def test_slab_scans_need_at_least_one_repeat(default_spectrum, basis_materials,
                                             single_channel_geometry):
    with pytest.raises(ToolkitError, match="repeats"):
        slab_scan_protocol(default_spectrum, basis_materials, DEFAULT_DOMAIN.grid((3, 3)),
                           single_channel_geometry, repeats=0)


def test_measured_samples_match_direct_recomputation(default_spectrum, basis_materials,
                                                     single_channel_geometry):
    points, counts = slab_scan_protocol(default_spectrum, basis_materials,
                                        DEFAULT_DOMAIN.grid((5, 5)), single_channel_geometry,
                                        noise=False)
    phi_hat = measure_drf(counts, 1.0e6)
    oracle = exact_phi(default_spectrum, basis_materials, points[0])
    assert np.abs(phi_hat[0] - oracle).max() < 1e-12


def test_fit_recovers_exact_polynomial():
    rng = np.random.default_rng(8)
    domain = CalibrationDomain(lower=np.zeros(2), upper=np.array([40.0, 5.0]))
    truth = fit_drf(rng.uniform([0, 0], [40, 5], (40, 2)),
                    rng.normal(size=(40, 3)), order=2, domain=domain)
    pts = rng.uniform([0, 0], [40, 5], (60, 2))
    samples = truth.eval(pts, channel=0)
    refit = fit_drf(pts, samples, order=2, domain=domain)
    assert np.abs(refit.theta - truth.theta).max() < 1e-8
    assert refit.fit_residual < 1e-8


def test_fit_idempotence_to_1e10(noiseless_drf):
    # refit on a fresh design grid; the scaled monomial basis keeps this
    # conditioned well below the 1e-10 target (raw cm monomials do not)
    g0 = np.linspace(0.0, 40.0, 12)
    g1 = np.linspace(0.0, 5.0, 12)
    pts = np.stack(np.meshgrid(g0, g1, indexing="ij"), axis=-1).reshape(-1, 2)
    samples = noiseless_drf.eval(pts, channel=0)
    refit = fit_drf(pts, samples, order=noiseless_drf.order, domain=noiseless_drf.domain)
    assert np.abs(refit.theta[0] - noiseless_drf.theta[0]).max() < 1e-10


def test_too_few_points_is_rank_error():
    domain = CalibrationDomain(lower=np.zeros(2), upper=np.array([40.0, 5.0]))
    with pytest.raises(NumericError, match="cannot determine"):
        fit_drf(np.random.default_rng(0).uniform(size=(10, 2)), np.zeros((10, 2)),
                order=4, domain=domain)


def test_collinear_points_are_rank_deficient():
    domain = CalibrationDomain(lower=np.zeros(2), upper=np.array([40.0, 5.0]))
    pts = np.stack([np.linspace(0, 40, 30), np.zeros(30)], axis=1)  # all on one axis
    with pytest.raises(NumericError, match="rank-deficient"):
        fit_drf(pts, np.zeros((30, 2)), order=2, domain=domain)


def test_constant_drf_has_zero_gradient():
    domain = CalibrationDomain(lower=np.zeros(2), upper=np.array([40.0, 5.0]))
    theta = np.zeros((1, 4, 9))
    theta[0, :, 0] = 1.5
    drf = DrfPolynomial(theta=theta, order=2, n_materials=2, domain=domain,
                        basis_scale=np.array([40.0, 5.0]))
    p = np.array([[3.0, 1.0], [10.0, 4.0]])
    assert np.allclose(drf.eval(p), 1.5, atol=1e-15)
    assert not drf.grad(p).any()


def test_linear_drf_gradient_rows():
    # phi = 0.2*p0 + 0.9*p1 + 0.1 per bin, expressed in the scaled basis
    domain = CalibrationDomain(lower=np.zeros(2), upper=np.array([40.0, 5.0]))
    theta = np.zeros((1, 3, 4))  # order 1 -> powers (0,0),(0,1),(1,0),(1,1)
    theta[0, :, 0] = 0.1
    theta[0, :, 1] = 0.9 * 5.0
    theta[0, :, 2] = 0.2 * 40.0
    drf = DrfPolynomial(theta=theta, order=1, n_materials=2, domain=domain,
                        basis_scale=np.array([40.0, 5.0]))
    g = drf.grad(np.array([7.0, 2.0]))
    assert np.allclose(g, np.tile([0.2, 0.9], (3, 1)), atol=1e-14)


def test_gradient_matches_central_differences(noiseless_drf):
    rng = np.random.default_rng(10)
    p = rng.uniform([0.5, 0.1], [39.5, 4.9], size=(200, 2))
    g = noiseless_drf.grad(p, channel=0)
    h = 1e-5
    for l in range(2):
        e = np.zeros(2)
        e[l] = h
        fd = (noiseless_drf.eval(p + e, 0) - noiseless_drf.eval(p - e, 0)) / (2 * h)
        rel = np.abs(fd - g[:, :, l]) / np.maximum(np.abs(g[:, :, l]), 1e-12)
        assert rel.max() < 1e-6


def test_sinogram_jacobian_matches_central_differences(default_spectrum, basis_materials):
    geo = ScanGeometry(mode="fan", n_views=1, n_channels=5, spacing=4.0, sid=20.0, sdd=40.0)
    drf = calibrate_drf(default_spectrum, basis_materials, geo, points_per_axis=(6, 6),
                        noise=False)
    rng = np.random.default_rng(11)
    p = rng.uniform([0.5, 0.1], [39.5, 4.9], size=(40 * 5, 2))  # rows (view, channel)
    g = drf.grad_sino(p)
    h = 1e-5
    for l in range(2):
        e = np.zeros(2)
        e[l] = h
        fd = (drf.eval_sino(p + e) - drf.eval_sino(p - e)) / (2 * h)
        rel = np.abs(fd - g[:, :, l]) / np.maximum(np.abs(g[:, :, l]), 1e-12)
        assert rel.max() < 1e-6


def direct_response(theta, scale, order, p):
    """Per-coefficient monomial sum, its analytic Jacobian, and the sum of |terms|.

    `theta` is one channel's (K, n_coef) with n_coef = (order + 1)^L and p is
    (N, L); coefficient j, the j-th exponent tuple e of
    `np.ndindex((order + 1,) * L)`, multiplies prod_l s_l^e_l, s = p / scale.
    """
    s = p / scale
    n_mat = p.shape[1]
    phi = np.zeros((p.shape[0], theta.shape[0]))
    jac = np.zeros(phi.shape + (n_mat,))
    size = np.zeros(phi.shape + (1 + n_mat,))
    for j, exps in enumerate(np.ndindex((order + 1,) * n_mat)):
        coef = theta[:, j]
        powers = [s[:, l] ** e for l, e in enumerate(exps)]
        terms = [np.prod(powers, axis=0)]
        for m, e in enumerate(exps):
            factors = list(powers)
            factors[m] = e * s[:, m] ** max(e - 1, 0) / scale[m]
            terms.append(np.prod(factors, axis=0))
        for i, term in enumerate(terms):
            size[..., i] += np.abs(np.outer(term, coef))
        phi += np.outer(terms[0], coef)
        for m in range(n_mat):
            jac[..., m] += np.outer(terms[1 + m], coef)
    return phi, jac, size


@pytest.mark.parametrize("case", ["single", "distinct", "shared", "explicit"])
def test_kernel_matches_direct_monomial_sum(case):
    rng = np.random.default_rng(12)
    n_chan = 1 if case == "single" else 3
    for n_mat in (1, 2, 3):
        theta = rng.normal(size=(n_chan, 6, 5**n_mat))
        if case == "shared":
            theta[:] = theta[0]
        scale = np.array([40.0, 5.0, 10.0])[:n_mat]
        drf = DrfPolynomial(theta=theta, order=4, n_materials=n_mat, basis_scale=scale,
                            domain=CalibrationDomain(lower=np.zeros(n_mat), upper=scale))
        assert drf.n_channels == n_chan
        assert drf._coef.shape[0] == (1 if case in ("single", "shared") else 3)  # shared path
        # rows inside and outside the calibration domain
        p = rng.uniform(-0.5 * scale, 1.5 * scale, size=(50 * n_chan, n_mat))
        if case == "explicit":
            channels = rng.integers(0, n_chan, size=p.shape[0])
            one_view = drf.select(channels)
            phi, jac = one_view.eval_jac(p)
            assert np.array_equal(one_view.eval_sino(p), phi)
            assert np.array_equal(one_view.grad_sino(p), jac)
        else:
            channels = np.arange(p.shape[0]) % n_chan   # row-major (view, channel)
            phi, jac = drf.eval_jac(p)
            assert np.array_equal(drf.eval_sino(p), phi)
            assert np.array_equal(drf.grad_sino(p), jac)
        for c in range(n_chan):
            rows = channels == c
            ref_phi, ref_jac, size = direct_response(theta[c], scale, 4, p[rows])
            assert np.all(np.abs(phi[rows] - ref_phi) <= 1e-12 * size[..., 0])
            assert np.all(np.abs(jac[rows] - ref_jac) <= 1e-12 * size[..., 1:])
            ref_phi, ref_jac, size = direct_response(theta[c], scale, 4, p)
            assert np.all(np.abs(drf.eval(p, channel=c) - ref_phi) <= 1e-12 * size[..., 0])
            assert np.all(np.abs(drf.grad(p, channel=c) - ref_jac) <= 1e-12 * size[..., 1:])
            stack = drf.eval(p.reshape(10, -1, n_mat), channel=c)
            assert np.all(np.abs(stack.reshape(ref_phi.shape) - ref_phi) <= 1e-12 * size[..., 0])


@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("n_mat", [1, 2, 3])
def test_derivative_sets_give_the_jacobian(n_mat, order, shared):
    rng = np.random.default_rng(100 * n_mat + order)
    n_chan = 3
    theta = rng.normal(size=(n_chan, 4, (order + 1) ** n_mat))
    if shared:
        theta[:] = theta[0]
    scale = np.array([40.0, 5.0, 10.0])[:n_mat]
    drf = DrfPolynomial(theta=theta, order=order, n_materials=n_mat, basis_scale=scale,
                        domain=CalibrationDomain(lower=np.zeros(n_mat), upper=scale))
    p = rng.uniform(-0.5 * scale, 1.5 * scale, size=(20 * n_chan, n_mat))
    _, jac = drf.eval_jac(p)
    if order == 0:
        assert not jac.any()
    for c in range(n_chan):
        rows = p[c::n_chan]
        # the basis-derivative product rule the kernel used before derivative sets
        _, ref_jac, size = direct_response(theta[c], scale, order, rows)
        assert np.all(np.abs(jac[c::n_chan] - ref_jac) <= 1e-12 * size[..., 1:])
        assert np.all(np.abs(drf.grad(rows, channel=c) - ref_jac) <= 1e-12 * size[..., 1:])
        for m in range(n_mat):
            h = np.zeros(n_mat)
            h[m] = 1e-5 * scale[m]
            fd = (drf.eval(rows + h, channel=c) - drf.eval(rows - h, channel=c)) / (2 * h[m])
            assert np.all(np.abs(fd - jac[c::n_chan, :, m]) <= 1e-6 * size[..., 1 + m] + 1e-9)


@pytest.mark.parametrize("group", [1, 4, 16])
def test_set_groups_change_no_bit(monkeypatch, group):
    rng = np.random.default_rng(15)
    n_chan = 11
    drf = DrfPolynomial(theta=rng.normal(size=(n_chan, 6, 25)), order=4, n_materials=2,
                        domain=DEFAULT_DOMAIN, basis_scale=np.array([40.0, 5.0]))
    p = rng.uniform([-20.0, -3.0], [60.0, 8.0], size=(7 * n_chan, 2))
    monkeypatch.setattr(calibration, "_SET_GROUP", group)
    work = Workspace()
    with work.frame():
        drf.eval_jac(p + 1.0, work)   # a group left unwritten keeps these rows' values
    phi, jac = drf.eval_jac(p, work)
    for c in range(n_chan):
        ref_phi, ref_jac = drf.select([c]).eval_jac(p[c::n_chan])
        assert phi[c::n_chan].tobytes() == ref_phi.tobytes()
        assert jac[c::n_chan].tobytes() == ref_jac.tobytes()


@pytest.mark.parametrize("shared", [True, False])
def test_selected_channels_evaluate_as_their_channels(shared):
    rng = np.random.default_rng(13)
    theta = rng.normal(size=(5, 6, 25))
    if shared:
        theta[:] = theta[0]
    drf = DrfPolynomial(theta=theta, order=4, n_materials=2, domain=DEFAULT_DOMAIN,
                        basis_scale=np.array([40.0, 5.0]))
    channels = np.array([4, 0, 4, 2, 1, 3, 0])
    p = rng.uniform([0.0, 0.0], [40.0, 5.0], size=(3 * channels.size, 2))   # three views
    one_view = drf.select(channels)
    assert one_view.n_channels == channels.size
    phi, jac = one_view.eval_jac(p)
    for row, c in enumerate(np.tile(channels, 3)):
        assert np.allclose(phi[row], drf.eval(p[row], channel=c), rtol=1e-13, atol=1e-13)
        assert np.allclose(jac[row], drf.grad(p[row], channel=c), rtol=1e-13, atol=1e-13)


def test_products_written_set_major_match_each_rows_channel():
    rng = np.random.default_rng(16)
    n_chan, n_views = 11, 5   # 11 sets: a group of 8 and one of 3
    drf = DrfPolynomial(theta=rng.normal(size=(n_chan, 6, 25)), order=4, n_materials=2,
                        domain=DEFAULT_DOMAIN, basis_scale=np.array([40.0, 5.0]))
    p = rng.uniform([-5.0, -1.0], [45.0, 6.0], size=(n_views * n_chan, 2))   # rows (view, channel)
    work = Workspace()
    out = work.take((6, 3, n_chan, n_views))
    phi, jac = drf.eval_jac(p, work, out)
    assert np.shares_memory(phi, out) and np.shares_memory(jac, out)
    by_row = drf.eval_jac(p)
    for view in range(n_views):
        for c in range(n_chan):
            row, at = view * n_chan + c, c * n_views + view   # its place in set-major order
            assert np.array_equal(phi[at], by_row[0][row])
            assert np.array_equal(jac[at], by_row[1][row])
            assert np.allclose(phi[at], drf.eval(p[row], channel=c), rtol=1e-13, atol=1e-13)
            assert np.allclose(jac[at], drf.grad(p[row], channel=c), rtol=1e-13, atol=1e-13)


def test_per_row_selection_traces_no_more_than_the_basis_derivative_kernel():
    # The MLE rescue evaluates `select(rows % n_channels)`, one coefficient set
    # per row, in the workspace its refinement passes grew on whole-view blocks.
    # Derivative sets kept per row would hold 600 floats a row (9.8 MB here).
    rng = np.random.default_rng(17)
    drf = DrfPolynomial(theta=rng.normal(size=(96, 8, 25)), order=4, n_materials=2,
                        domain=DEFAULT_DOMAIN, basis_scale=np.array([40.0, 5.0]))
    work = Workspace()
    with work.frame():
        drf.eval_jac(rng.uniform([0.0, 0.0], [40.0, 5.0], size=(96 * 170, 2)), work)
    one_view = drf.select(rng.integers(0, 96, size=2048))
    p = rng.uniform([-5.0, -1.0], [45.0, 6.0], size=(2048, 2))
    with work.frame():
        peak = traced_peak(one_view.eval_jac, p, work)
    assert peak <= 7_192   # bytes traced by the basis-derivative kernel it replaced


def test_select_on_a_shared_calibration_copies_no_coefficients(noiseless_drf):
    channels = np.zeros(20_000, dtype=int)
    coefficients = channels.size * noiseless_drf.theta[0].nbytes
    assert traced_peak(noiseless_drf.select, channels) < coefficients / 100
    assert noiseless_drf.select(channels).n_sets == 1


@pytest.mark.parametrize("channels", [[1], [-1], [0, 3], []])
def test_select_outside_the_channels_raises(channels):
    drf = DrfPolynomial(theta=np.ones((1, 2, 25)), order=4, n_materials=2, domain=DEFAULT_DOMAIN,
                        basis_scale=np.array([40.0, 5.0]))
    with pytest.raises(ToolkitError, match="channels"):
        drf.select(channels)


def test_dense_grid_validation_residual(default_spectrum, basis_materials, noiseless_drf):
    g0 = np.linspace(0.0, 40.0, 81)
    g1 = np.linspace(0.0, 5.0, 81)
    pts = np.stack(np.meshgrid(g0, g1, indexing="ij"), axis=-1).reshape(-1, 2)
    fitted = noiseless_drf.eval(pts, channel=0)
    oracle = exact_phi(default_spectrum, basis_materials, pts)
    assert np.abs(fitted - oracle).max() < 1e-3


def test_response_nearly_affine_in_pathlength(noiseless_drf):
    # narrow bins: quadratic-and-higher coefficients stay small next to linear
    shape = (noiseless_drf.order + 1,) * noiseless_drf.n_materials
    total = np.indices(shape).reshape(len(shape), -1).sum(axis=0)  # each coefficient's degree
    theta = noiseless_drf.theta[0]
    lin = np.linalg.norm(theta[:, total == 1], axis=1)
    high = np.linalg.norm(theta[:, total >= 2], axis=1)
    assert np.all(high <= 0.1 * lin)


def test_air_point_properties(noiseless_drf):
    phi0 = noiseless_drf.eval(np.zeros(2), channel=0)
    assert np.all(phi0 >= 0.0)
    resid = abs(np.exp(-phi0).sum() - 1.0)
    assert resid < max(10 * noiseless_drf.fit_residual, 1e-8)


def test_slab_effective_pathlength_center_and_60_degrees():
    # flat fan detector laid out so an off-center channel sits at gamma = 60 deg
    sdd = 10.0
    offset = np.tan(np.pi / 3.0) * sdd
    geo = ScanGeometry(mode="fan", n_views=1, n_channels=3, spacing=offset,
                       sid=5.0, sdd=sdd)
    gamma = geo.fan_angles()
    assert np.allclose(gamma, [-np.pi / 3, 0.0, np.pi / 3], atol=1e-12)
    from pcmd.spectrum import filtered_kramers
    from pcmd.materials import load_material

    points, _ = slab_scan_protocol(filtered_kramers(),
                                   [load_material("polyethylene"), load_material("pvc")],
                                   np.array([[4.0, 1.0]]), geo, repeats=1, noise=False)
    assert np.allclose(points[1, 0], [4.0, 1.0], atol=1e-14)       # center channel
    assert np.allclose(points[2, 0], [8.0, 2.0], atol=1e-12)       # 1/cos(60deg) = 2
    assert np.allclose(points[0, 0], points[2, 0], atol=1e-12)


def test_noisy_slab_protocol_within_three_sigma(default_spectrum, basis_materials,
                                                single_channel_geometry):
    points, repeats = DEFAULT_DOMAIN.grid((9, 9)), 100
    _, noiseless = slab_scan_protocol(default_spectrum, basis_materials, points,
                                      single_channel_geometry, repeats=repeats,
                                      air_counts_total=1.0e6, noise=False)
    _, noisy = slab_scan_protocol(default_spectrum, basis_materials, points,
                                  single_channel_geometry, repeats=repeats,
                                  air_counts_total=1.0e6, noise=True, seed=31)
    phi_ref = measure_drf(noiseless, 1.0e6)
    phi_hat = measure_drf(noisy, 1.0e6)
    # delta method: var(-log(mean)) ~ 1 / (total counts over repeats)
    sigma = 1.0 / np.sqrt(repeats * noiseless)
    z = ((phi_hat - phi_ref) / sigma).ravel()
    n = z.size  # 81 points x 8 bins; all n within 3 sigma holds only 0.9973^n ~ 17% of the time
    assert abs(np.mean(z ** 2) - 1.0) <= 4.0 * np.sqrt(2.0 / n)  # variance
    assert abs(z.mean()) <= 4.0 / np.sqrt(n)                      # bias
    assert np.abs(z).max() <= 4.5  # Bonferroni: about 0.4% family-wise error over n cells


def test_parallel_channels_share_coefficients(default_spectrum, basis_materials):
    geo = ScanGeometry(mode="parallel", n_views=1, n_channels=3, spacing=0.1)
    drf = calibrate_drf(default_spectrum, basis_materials, geo, points_per_axis=(6, 6),
                        noise=False)
    assert drf.n_channels == 3
    assert np.abs(drf.theta - drf.theta[0]).max() < 1e-12


def test_fan_channels_differ_then_match_after_cos_correction(default_spectrum, basis_materials):
    geo = ScanGeometry(mode="fan", n_views=1, n_channels=5, spacing=4.0, sid=20.0, sdd=40.0)
    drf = calibrate_drf(default_spectrum, basis_materials, geo, points_per_axis=(6, 6),
                        noise=False)
    # off-center channel coefficients differ from the center's
    assert np.abs(drf.theta[0] - drf.theta[2]).max() > 1e-6


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_bounds_and_basis_scale_rejected(bad):
    with pytest.raises(ToolkitError, match="finite"):
        CalibrationDomain(lower=np.array([0.0, bad]), upper=np.array([40.0, 5.0]))
    with pytest.raises(ToolkitError, match="finite"):
        CalibrationDomain(lower=np.zeros(2), upper=np.array([bad, 5.0]))
    with pytest.raises(ToolkitError, match="finite"):
        DrfPolynomial(theta=np.zeros((1, 1, 4)), order=1, n_materials=2, domain=DEFAULT_DOMAIN,
                      basis_scale=np.array([bad, 5.0]))


def test_calibration_container_roundtrip(tmp_path, noiseless_drf):
    path = os.path.join(tmp_path, "cal.pcmdcal")
    save_calibration(path, noiseless_drf)
    back = load_calibration(path)
    assert np.array_equal(back.theta, noiseless_drf.theta)
    assert back.order == noiseless_drf.order
    assert np.array_equal(back.basis_scale, noiseless_drf.basis_scale)
    assert np.array_equal(back.domain.lower, noiseless_drf.domain.lower)
    assert np.array_equal(back.domain.upper, noiseless_drf.domain.upper)
    assert np.array_equal(back.bin_edges, noiseless_drf.bin_edges)
    assert back.fit_residual == noiseless_drf.fit_residual
