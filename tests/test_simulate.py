import numpy as np
import pytest
from scipy import stats

from helpers import traced_peak
from pcmd import simulate
from pcmd.errors import ToolkitError
from pcmd.materials import equivalent_fractions, load_material
from pcmd.phantom import Disk, Phantom
from pcmd.simulate import PURPOSE, expected_counts, sample_poisson, scan_phantom, stream
from pcmd.spectrum import SourceSpectrum


def water_disk(basis_materials, radius):
    """A centred disk of water, as its basis-material mix."""
    return Disk(center=(0.0, 0.0), radius=radius,
                fractions=equivalent_fractions(load_material("water"), basis_materials))


def test_zero_pathlength_gives_binned_fluence(default_spectrum, basis_materials):
    sp = default_spectrum
    lam = expected_counts(sp, basis_materials, np.zeros((3, 2)), 3.0e5)
    expect = 3.0e5 / sp.total_fluence * sp.binned_fluence_matrix().sum(axis=0)
    assert np.allclose(lam, expect[None, :], rtol=1e-14)
    assert np.allclose(lam.sum(axis=1), 3.0e5, rtol=1e-14)  # each row sums to the air total


def test_monochromatic_bin_is_beer_lambert():
    # two one-sample bins; single material
    e = np.arange(40.0, 121.0)
    w = np.zeros_like(e)
    w[np.nonzero(e == 50.0)[0][0]] = 2.0
    w[np.nonzero(e == 80.0)[0][0]] = 1.0
    sp = SourceSpectrum(energies=e, fluence=w, kvp=120.0,
                        bin_edges=np.array([40.0, 65.0, 120.0]))
    water = load_material("water")
    t = 7.3
    lam = expected_counts(sp, [water], np.array([[t]]), sp.total_fluence)[0]
    assert np.allclose(lam, [2.0 * np.exp(-water.mu_at(50.0) * t),
                             1.0 * np.exp(-water.mu_at(80.0) * t)], rtol=1e-14)


def test_expected_counts_matches_direct_summation_oracle(default_spectrum, basis_materials):
    # PE 10 cm + PVC 1 cm against an independent quadrature over the same tables
    p = np.array([10.0, 1.0])
    lam = expected_counts(default_spectrum, basis_materials, p[None],
                          2.0 * default_spectrum.total_fluence)[0]
    e = default_spectrum.energies
    mu_pe = basis_materials[0].mu_at(e)
    mu_pvc = basis_materials[1].mu_at(e)
    att = np.exp(-(mu_pe * p[0] + mu_pvc * p[1]))
    oracle = np.array([2.0 * np.sum(default_spectrum.fluence[m] * att[m])
                       for m in default_spectrum.bin_masks()])
    assert np.abs(lam - oracle).max() / oracle.max() < 1e-12


def test_expected_counts_monotone_decreasing(default_spectrum, basis_materials):
    rng = np.random.default_rng(1)
    base = rng.uniform([0, 0], [30, 4], size=(50, 2))
    lam0 = expected_counts(default_spectrum, basis_materials, base, 1.0e6)
    for l in range(2):
        step = np.zeros(2)
        step[l] = 0.37
        lam1 = expected_counts(default_spectrum, basis_materials, base + step, 1.0e6)
        assert np.all(lam1 < lam0)


def test_expected_counts_holds_one_chunk_buffer(default_spectrum, basis_materials):
    rows = 3 * simulate._ROW_CHUNK
    p = np.random.default_rng(9).uniform(0.0, [30.0, 4.0], size=(rows, 2))
    out_bytes = rows * default_spectrum.n_bins * 8
    chunk_bytes = simulate._ROW_CHUNK * default_spectrum.energies.size * 8
    peak = traced_peak(expected_counts, default_spectrum, basis_materials, p, 2.0e4)
    assert peak <= out_bytes + 1.25 * chunk_bytes


def test_mismatched_material_count_raises(default_spectrum, basis_materials):
    # pathlengths are (M, L): one column per material, and no single-row shorthand
    for shape in [(1, 3), (2,), (1, 1, 2)]:
        with pytest.raises(ToolkitError, match="materials"):
            expected_counts(default_spectrum, basis_materials, np.zeros(shape), 1.0)


def test_nonfinite_pathlength_raises(default_spectrum, basis_materials):
    with pytest.raises(ToolkitError, match="finite"):
        expected_counts(default_spectrum, basis_materials, np.array([[np.nan, 0.0]]), 1.0)


def test_poisson_zero_rate_is_zero():
    assert not sample_poisson(np.zeros((5, 3)), seed=1).any()


def test_poisson_seed_determinism():
    lam = np.full((100, 8), 37.5)
    a = sample_poisson(lam, seed=11)
    b = sample_poisson(lam, seed=11)
    c = sample_poisson(lam, seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_neighbouring_seeds_do_not_share_rows():
    # keyed on seed XOR row, seed 0 row 1 and seed 1 row 0 were one stream
    lam = np.full((2, 64), 50.0)
    assert not np.array_equal(sample_poisson(lam, 0)[1], sample_poisson(lam, 1)[0])


def test_streams_are_pairwise_distinct_across_seeds_indices_and_purposes():
    heads = {(seed, purpose, index): tuple(stream(seed, purpose, index).bit_generator.random_raw(4))
             for seed in range(16) for purpose in PURPOSE for index in range(64)}
    assert len(set(heads.values())) == len(heads) == 16 * 2 * 64


def test_rows_per_stream_draws_each_block_from_its_own_stream():
    lam = np.random.default_rng(4).uniform(0.0, 200.0, size=(6, 3, 8))  # views x channels x bins
    draws = sample_poisson(lam.reshape(18, 8), 9, "calibration", rows_per_stream=3)
    for v in range(6):
        assert np.array_equal(draws[3 * v:3 * v + 3], stream(9, "calibration", v).poisson(lam[v]))
    assert not np.array_equal(draws, sample_poisson(lam.reshape(18, 8), 9, rows_per_stream=3))


def test_changing_one_views_rates_leaves_other_views_unchanged():
    lam = np.random.default_rng(2).uniform(1.0, 500.0, size=(10 * 4, 8))  # 10 views x 4 channels
    edited = lam.copy()
    edited[:4] *= 3.7  # view 0 draws a different number of variates from its stream
    a = sample_poisson(lam, 21, rows_per_stream=4)
    b = sample_poisson(edited, 21, rows_per_stream=4)
    assert not np.array_equal(a[:4], b[:4])
    assert np.array_equal(a[4:], b[4:])


def test_poisson_negative_rate_raises():
    with pytest.raises(ToolkitError, match="nonnegative"):
        sample_poisson(np.array([-1.0]), seed=0)


def test_poisson_sample_mean_clt_bound():
    n = 100_000
    draws = sample_poisson(np.full((1000, 100), 1000.0), seed=5).ravel()
    assert draws.size == n
    assert abs(draws.mean() - 1000.0) <= 4.0 * np.sqrt(1000.0 / n)


@pytest.mark.parametrize("lam", [1.0, 10.0, 1000.0])
def test_poisson_chi_square_goodness_of_fit(lam):
    n = 100_000
    draws = sample_poisson(np.full((500, 200), lam), seed=int(lam)).ravel()
    lo = max(0, int(lam - 5 * np.sqrt(lam)))
    hi = int(lam + 5 * np.sqrt(lam)) + 1
    edges = np.arange(lo, hi + 1)
    probs = stats.poisson.pmf(edges[:-1], lam)
    probs = np.concatenate([[stats.poisson.cdf(lo - 1, lam) + probs[0]],
                            probs[1:-1],
                            [probs[-1] + stats.poisson.sf(hi - 1, lam)]])
    counts = np.histogram(np.clip(draws, lo, hi - 1), bins=edges)[0]
    # pool cells with tiny expectation
    keep = probs * n >= 5
    pooled_counts = np.concatenate([counts[keep], [counts[~keep].sum()]]) if (~keep).any() \
        else counts[keep]
    pooled_probs = np.concatenate([probs[keep], [probs[~keep].sum()]]) if (~keep).any() \
        else probs[keep]
    pooled_probs = pooled_probs / pooled_probs.sum()
    chi2 = np.sum((pooled_counts - n * pooled_probs) ** 2 / (n * pooled_probs))
    dof = pooled_counts.size - 1
    assert chi2 < stats.chi2.ppf(1.0 - 1e-3, dof)


def test_empty_phantom_noiseless_rows_sum_to_one(default_spectrum, basis_materials,
                                                 small_geometry):
    ph = Phantom(disks=(), n_materials=2)
    t, _, _ = scan_phantom(ph, small_geometry, default_spectrum, basis_materials,
                           air_counts_total=5.0e4, noise=False)
    assert np.abs(t.sum(axis=1) - 1.0).max() < 1e-12
    sp = default_spectrum
    air_fractions = sp.binned_fluence_matrix().sum(0) / sp.total_fluence
    assert np.allclose(t, air_fractions[None, :], atol=1e-12)


def test_noise_off_counts_equal_expectation(default_spectrum, basis_materials, small_geometry):
    ph = Phantom(disks=(water_disk(basis_materials, 5.0),), n_materials=2)
    t, air, p = scan_phantom(ph, small_geometry, default_spectrum, basis_materials,
                             air_counts_total=7.0e4, noise=False)
    pts, dirs = small_geometry.all_rays()
    assert np.array_equal(p, ph.pathlengths(pts, dirs))
    lam = expected_counts(default_spectrum, basis_materials, p, 7.0e4)
    assert air.dtype == float and np.all(air == 7.0e4)  # the configured total, exactly
    assert np.array_equal(t, lam / air[:, None])


def test_scan_central_ray_sees_disk_diameter(default_spectrum, basis_materials):
    from pcmd.geometry import ScanGeometry

    geo = ScanGeometry(mode="parallel", n_views=1, n_channels=3, spacing=1.0)
    disk = water_disk(basis_materials, 5.0)
    ph = Phantom(disks=(disk,), n_materials=2)
    pts, dirs = geo.all_rays()
    p = ph.pathlengths(pts, dirs)
    assert np.allclose(p[1], 10.0 * disk.fractions, atol=1e-12)  # center channel
