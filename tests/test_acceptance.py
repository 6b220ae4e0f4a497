"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured values at its pinned tolerance."""

import os
import time

import numpy as np
import pytest

from helpers import grid_polish_minimizer, prox_objective
from pcmd.calibration import calibrate_drf
from pcmd.config import PipelineConfig
from pcmd.detector import EPSILON, _surrogate_terms, detector_agent_apply
from pcmd.geometry import ImageGrid, ScanGeometry
from pcmd.materials import load_material
from pcmd.metrics import RoiCircle, RoiSpec, cnr, roi_stats
from pcmd.phantom import Disk, Phantom
from pcmd.priors import GaussianPrior
from pcmd.recon import fbp_reconstruct, synthesize_mono
from pcmd.simulate import expected_counts, sample_poisson, scan_phantom
from pcmd.solver import MaceConfig, MleConfig, mann_iterate, mle_decompose, run_mace
from pcmd.spectrum import filtered_kramers

SEED = 2024
AIR_COUNTS = 3.0e5
MACE_SIGMA = 0.08
PRIOR_STD = 3.0
SHIPPED = os.path.join(os.path.dirname(__file__), "..", "configs", "low_contrast.json")


def report(criterion: str, ok: bool, detail: str):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def desk():
    materials = [load_material("polyethylene"), load_material("pvc")]
    spectrum = filtered_kramers()
    geometry = ScanGeometry(mode="parallel", n_views=360, n_channels=256, spacing=0.1)
    grid = ImageGrid(n_x=256, n_y=256, pixel_size=0.1)
    drf = calibrate_drf(spectrum, materials,
                        ScanGeometry(mode="parallel", n_views=1, n_channels=1, spacing=0.1),
                        noise=False)
    return materials, spectrum, geometry, grid, drf


@pytest.fixture(scope="module")
def cnr_experiment(desk):
    """Full noisy low-contrast experiment shared by criteria 1 and 2."""
    materials, spectrum, geometry, grid, drf = desk
    phantom = PipelineConfig.from_file(SHIPPED).phantom()
    t0 = time.perf_counter()
    t, air, _ = scan_phantom(phantom, geometry, spectrum, materials,
                             AIR_COUNTS, noise=True, seed=SEED)
    mle = mle_decompose(t, air, drf, MleConfig(n_iter=100))
    sino = (geometry.n_views, geometry.n_channels)
    mace = run_mace(t.reshape(*sino, -1), air.reshape(sino), drf,
                    MaceConfig(prior=GaussianPrior([PRIOR_STD, PRIOR_STD]), rho=0.8,
                               n_iter=20, sigma=MACE_SIGMA, init=MleConfig(n_iter=15)))
    images = {}
    for name, p in (("mle", mle.p), ("mace", mace.p)):
        mat_img = fbp_reconstruct(p.reshape(geometry.n_rays, -1), geometry, grid)
        images[name] = synthesize_mono(mat_img, materials, 70.0, hounsfield=True)
    elapsed = time.perf_counter() - t0
    target = RoiCircle("insert_1p01", (5.0, 0.0), 0.9)
    background = RoiCircle("background", (2.5, 4.33), 1.2)
    return images, grid, target, background, elapsed


def test_criterion_1_cnr_boost(cnr_experiment):
    images, grid, target, background, elapsed = cnr_experiment
    cnr_mle = cnr(images["mle"], grid, target, background)
    cnr_mace = cnr(images["mace"], grid, target, background)
    ratio = cnr_mace / cnr_mle
    ok = (0.3 <= cnr_mle <= 1.0) and ratio >= 3.0 and elapsed <= 600.0
    report("1 (CNR boost)", ok,
           f"MLE CNR {cnr_mle:.3f} in [0.3, 1.0]; MACE CNR {cnr_mace:.3f}; "
           f"ratio {ratio:.2f} >= 3.0; pipeline {elapsed:.0f}s <= 600s")


def test_criterion_2_noise_reduction_pattern(cnr_experiment):
    images, grid, _, background, _ = cnr_experiment
    spec = RoiSpec((background,))
    mean_mle, std_mle = roi_stats(images["mle"], grid, spec)["background"]
    mean_mace, std_mace = roi_stats(images["mace"], grid, spec)["background"]
    std_ratio = std_mace / std_mle
    mean_shift = abs(mean_mace - mean_mle) / abs(mean_mle)
    ok = std_ratio <= 0.20 and mean_shift <= 0.02
    report("2 (noise reduction)", ok,
           f"background {mean_mle:.1f}+/-{std_mle:.1f} (MLE) vs "
           f"{mean_mace:.1f}+/-{std_mace:.1f} (MACE); std ratio {std_ratio:.3f} <= 0.20; "
           f"mean shift {100 * mean_shift:.3f}% <= 2%")


def test_criterion_3_mle_consistency(desk):
    materials, spectrum, geometry, grid, drf = desk
    phantom = PipelineConfig.from_file(SHIPPED).phantom()
    t0 = time.perf_counter()
    t, air, _ = scan_phantom(phantom, geometry, spectrum, materials,
                             AIR_COUNTS, noise=False)
    pts, dirs = geometry.all_rays()
    p_true = phantom.pathlengths(pts, dirs)
    res = mle_decompose(t, air, drf, MleConfig(n_iter=100))
    err = np.abs(res.p - p_true).max()
    elapsed = time.perf_counter() - t0
    ok = err < 1e-3 and elapsed <= 120.0
    report("3 (MLE consistency)", ok,
           f"max |p - p_true| = {err:.2e} cm < 1e-3 over {p_true.shape[0]} projections; "
           f"{elapsed:.0f}s <= 120s")


def test_criterion_4_surrogate_majorization_suite():
    rng = np.random.default_rng(17)
    n = 10_000
    z_ref = rng.uniform(-2.0, 8.0, n)
    t = rng.uniform(0.0, 1.5, n)
    b, c = _surrogate_terms(z_ref, t, EPSILON)
    z = (z_ref - EPSILON) + rng.exponential(2.0, n)

    def g(x):
        return np.exp(-x) + t * x

    gap = (g(z) - g(z_ref)) - (b * (z - z_ref) + 0.5 * c * (z - z_ref) ** 2)
    worst_gap = gap.max()
    tangency = np.array_equal(b, -np.exp(-z_ref) + t)
    curv_ok, curv_detail = True, []
    for eps in (1e-2, 1e-3, 1e-4):
        _, c = _surrogate_terms(z_ref, t, eps)
        bound = np.exp(2.0) * eps  # O(eps) with the domain's exp(-z) prefactor
        worst = np.abs(c - np.exp(-z_ref)).max()
        curv_ok &= worst <= bound
        curv_detail.append(f"eps={eps:g}: |C - exp(-z)| = {worst:.1e} <= {bound:.1e}")
    ok = worst_gap <= 1e-12 and tangency and curv_ok
    report("4 (surrogate majorization)", ok,
           f"10^4 triples, max violation {worst_gap:.1e} <= 1e-12; tangency exact: "
           f"{tangency}; " + "; ".join(curv_detail))


def test_criterion_5_prox_oracle_equivalence(desk):
    materials, spectrum, _, _, drf = desk
    rng = np.random.default_rng(2025)
    worst = 0.0
    for trial in range(100):
        p_star = rng.uniform([1.0, 0.1], [30.0, 4.0])
        air = 2.0e4
        lam = expected_counts(spectrum, materials, p_star[None], air)[0]
        t = sample_poisson(lam, seed=trial).astype(float) / air
        tether = p_star + rng.normal(0.0, 0.3, 2)
        sigma = 10 ** rng.uniform(-1.5, 0.5)
        out = detector_agent_apply(tether[None], t[None], np.array([air]), drf.select([0]),
                                   sigma, 50)
        oracle = grid_polish_minimizer(prox_objective(drf, t, air, tether, sigma),
                                       drf.domain)
        worst = max(worst, float(np.abs(out[0] - oracle).max()))
    ok = worst < 1e-6
    report("5 (prox oracle equivalence)", ok,
           f"100 instances, worst |prox - grid+polish| = {worst:.2e} cm < 1e-6")


def test_criterion_6_mace_equals_map_on_quadratics():
    rng = np.random.default_rng(11)
    n = 5
    a1 = rng.normal(size=(n, n))
    qf = a1 @ a1.T + np.eye(n)
    a2 = rng.normal(size=(n, n))
    qh = a2 @ a2.T + np.eye(n)
    af, ah = rng.normal(size=n), rng.normal(size=n)
    map_sol = np.linalg.solve(qf + qh, qf @ af + qh @ ah)
    sigma = 0.7

    def prox(q_mat, anchor):
        m = q_mat + np.eye(n) / sigma**2
        return lambda p: np.linalg.solve(m, q_mat @ anchor + p.ravel() / sigma**2).reshape(p.shape)

    details = []
    ok = True
    for rho in (0.2, 0.5, 0.8):
        res = mann_iterate(np.zeros((1, n)), prox(qf, af), prox(qh, ah), rho, 200)
        err = float(np.abs(res.p - map_sol).max())
        ok &= err < 1e-8
        details.append(f"rho={rho}: |p - MAP| = {err:.1e}")
    report("6 (MACE equals MAP)", ok, "; ".join(details) + " (all < 1e-8, 200 iterations)")


def test_criterion_7_calibration_fidelity(desk):
    materials, spectrum, _, _, drf = desk
    g0 = np.linspace(0.0, 40.0, 81)
    g1 = np.linspace(0.0, 5.0, 81)
    pts = np.stack(np.meshgrid(g0, g1, indexing="ij"), axis=-1).reshape(-1, 2)
    lam = expected_counts(spectrum, materials, pts, spectrum.total_fluence)
    exact = -np.log(lam / spectrum.total_fluence)
    resid = float(np.abs(drf.eval(pts, channel=0) - exact).max())

    rng = np.random.default_rng(10)
    p = rng.uniform([0.5, 0.1], [39.5, 4.9], size=(300, 2))
    g = drf.grad(p, channel=0)
    h = 1e-5
    rel_worst = 0.0
    for l in range(2):
        e = np.zeros(2)
        e[l] = h
        fd = (drf.eval(p + e, 0) - drf.eval(p - e, 0)) / (2 * h)
        rel = np.abs(fd - g[:, :, l]) / np.maximum(np.abs(g[:, :, l]), 1e-12)
        rel_worst = max(rel_worst, float(rel.max()))
    ok = resid < 1e-3 and rel_worst < 1e-6
    report("7 (calibration fidelity)", ok,
           f"order-4 fit on the 9x9 grid: dense-grid residual {resid:.2e} < 1e-3; "
           f"gradient vs finite differences {rel_worst:.2e} < 1e-6 relative")


def test_criterion_8_fbp_fidelity():
    geometry = ScanGeometry(mode="parallel", n_views=360, n_channels=256, spacing=0.1)
    grid = ImageGrid(n_x=256, n_y=256, pixel_size=0.1)
    phantom = Phantom(disks=(Disk(center=(0.0, 0.0), radius=5.0, fractions=np.array([1.0])),),
                      n_materials=1)
    pts, dirs = geometry.all_rays()
    img = fbp_reconstruct(phantom.pathlengths(pts, dirs)[:, 0], geometry, grid)
    xs, ys = grid.pixel_centers()
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    r = np.hypot(gx, gy)
    interior = float(img[r < 4.0].mean())
    exterior = float(img[(r > 6.0) & (r < 11.0)].mean())
    ok = abs(interior - 1.0) < 0.02 and abs(exterior) < 0.02
    report("8 (FBP fidelity)", ok,
           f"disk interior mean {interior:.4f} (within 2% of 1.0); "
           f"exterior mean {exterior:.1e} (|.| < 0.02)")


def test_criterion_9_throughput_note(desk):
    materials, spectrum, geometry, _, drf = desk
    phantom = PipelineConfig.from_file(SHIPPED).phantom()
    t, air, _ = scan_phantom(phantom, geometry, spectrum, materials,
                             AIR_COUNTS, noise=True, seed=1)
    pts, dirs = geometry.all_rays()
    p = phantom.pathlengths(pts, dirs)
    n_iter = 5
    t0 = time.perf_counter()
    q = p
    for _ in range(n_iter):
        q = detector_agent_apply(q, t, air, drf, 1.0e3, p_prime=q)
    dt = time.perf_counter() - t0
    import os

    cores = os.cpu_count() or 1
    rate = geometry.n_rays * n_iter / dt
    per_core = rate / cores
    # benchmark report only; no hard threshold on this figure
    report("9 (throughput note)", rate > 0,
           f"MLE refinement: {rate:,.0f} projection-updates/s total, "
           f"{per_core:,.0f}/s/core on {cores} cores (reference point: 1e4/s/core)")
