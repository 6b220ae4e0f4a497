import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmd.calibration import DEFAULT_DOMAIN
from pcmd.config import PipelineConfig
from pcmd.errors import ToolkitError
from pcmd.priors import (GaussianPrior, apply_prior, clip_prior, compose_priors, gaussian_kernel,
                         rotation_matrix)

SHAPE = (24, 18)


def random_sino(seed, channels=2):
    rng = np.random.default_rng(seed)
    return rng.normal(size=SHAPE + (channels,))


def test_gaussian_preserves_constants():
    spec = GaussianPrior([2.0, 1.0])
    p = np.full(SHAPE + (2,), 3.7)
    out = apply_prior(spec, p)
    assert np.abs(out - 3.7).max() < 1e-12


def test_gaussian_kernel_truncated_at_four_sigma():
    k = gaussian_kernel(2.0)
    assert k.size == 2 * 8 + 1
    assert k.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.array_equal(k, k[::-1])


@pytest.mark.parametrize("shape, impulse, std", [
    (SHAPE, (7, 9), 2.0),
    (SHAPE, (7, 9), (3.0, 1.0)),     # anisotropic: a different kernel per axis
    (SHAPE, (2, 16), (7.0, 5.0)),    # radii 28 and 20 exceed both axes: the boundary reflects twice
    ((1, 18), (0, 9), 2.0),          # one view: filtered along channels only
], ids=["isotropic", "anisotropic", "radius-beyond-axes", "one-view"])
def test_impulse_matches_dense_convolution_oracle(shape, impulse, std):
    p = np.zeros(shape + (1,))
    p[impulse] = 1.0
    got = apply_prior(GaussianPrior([std]), p)[:, :, 0]
    kv, kc = (gaussian_kernel(s) for s in np.broadcast_to(std, 2))
    k2 = np.outer(kv, kc)
    padded = np.pad(p[:, :, 0], [(kv.size // 2,) * 2, (kc.size // 2,) * 2], mode="symmetric")
    dense = np.empty(shape)
    for i in range(shape[0]):
        for j in range(shape[1]):
            dense[i, j] = np.sum(padded[i:i + kv.size, j:j + kc.size] * k2)
    assert np.abs(got - dense).max() < 1e-12


def test_gaussian_is_linear():
    spec = GaussianPrior([1.5, 2.5])
    a, b = random_sino(1), random_sino(2)
    lhs = apply_prior(spec, 2.0 * a - 0.5 * b)
    rhs = 2.0 * apply_prior(spec, a) - 0.5 * apply_prior(spec, b)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_anisotropic_std_pairs():
    spec = GaussianPrior([(3.0, 1.0), 1.0])
    p = random_sino(3)
    out = apply_prior(spec, p)
    # stronger smoothing along views than channels for material 0
    dv = np.abs(np.diff(out[:, :, 0], axis=0)).mean()
    dc = np.abs(np.diff(out[:, :, 0], axis=1)).mean()
    assert dv < dc


def test_clip_examples_and_idempotence():
    spec = clip_prior(DEFAULT_DOMAIN)
    out = apply_prior(spec, np.array([[[-1.0, 7.0]]]))
    assert np.array_equal(out, [[[0.0, 5.0]]])
    p = random_sino(4) * 10.0
    once = apply_prior(spec, p)
    assert np.array_equal(apply_prior(spec, once), once)


@settings(max_examples=100, deadline=None)
@given(st.floats(-50, 50), st.floats(-50, 50))
def test_clip_idempotent_hypothesis(a, b):
    spec = clip_prior(DEFAULT_DOMAIN)
    p = np.array([[[a, b]]])
    once = apply_prior(spec, p)
    assert np.array_equal(apply_prior(spec, once), once)
    assert np.all(once >= DEFAULT_DOMAIN.lower) and np.all(once <= DEFAULT_DOMAIN.upper)


def test_identity_rotation_equals_plain_gaussian():
    p = random_sino(5)
    plain = apply_prior(GaussianPrior([2.0, 2.0]), p)
    decor = apply_prior(GaussianPrior([2.0, 2.0], np.eye(2)), p)
    assert np.abs(plain - decor).max() < 1e-14


def test_equal_stds_commute_with_any_rotation():
    p = random_sino(6)
    plain = apply_prior(GaussianPrior([1.8, 1.8]), p)
    for angle in (0.3, np.pi / 4, 1.2):
        decor = apply_prior(GaussianPrior([1.8, 1.8], rotation_matrix(angle)), p)
        assert np.abs(plain - decor).max() < 1e-12


def test_default_decorrelated_rotation_is_45_degrees():
    spec = PipelineConfig({"prior": {"kind": "decorrelated-gaussian", "std": [6.0, 1.5]}}).prior()
    expected = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
    assert np.allclose(spec.rotation, expected, atol=1e-15)


def test_nonorthonormal_rotation_rejected():
    with pytest.raises(ToolkitError, match="orthonormal"):
        GaussianPrior([1.0, 1.0], np.array([[1.0, 0.1], [0.0, 1.0]]))


@pytest.mark.parametrize("std, rotation", [
    ((1.0, 1.0, 1.0), rotation_matrix(0.3)),     # 2 x 2 for three materials
    ((1.0, 1.0), np.eye(3)),                     # 3 x 3 for two
    ((1.0, 1.0), np.eye(2)[:1]),                 # not square
])
def test_a_rotation_of_another_size_is_rejected(std, rotation):
    with pytest.raises(ToolkitError, match="rotation is .* need"):
        GaussianPrior(std, rotation)


def test_single_agents_are_nonexpansive():
    rng = np.random.default_rng(7)
    specs = [GaussianPrior([2.0, 3.0]),
             GaussianPrior([6.0, 1.5], rotation_matrix(np.pi / 4)),
             clip_prior(DEFAULT_DOMAIN)]
    for spec in specs:
        for _ in range(50):
            a = rng.normal(scale=3.0, size=SHAPE + (2,))
            b = rng.normal(scale=3.0, size=SHAPE + (2,))
            num = np.linalg.norm(apply_prior(spec, a) - apply_prior(spec, b))
            assert num <= np.linalg.norm(a - b) * (1.0 + 1e-12)


def test_composition_nonexpansiveness_logged_not_asserted(capsys):
    rng = np.random.default_rng(8)
    spec = compose_priors([GaussianPrior([2.0, 2.0]), clip_prior(DEFAULT_DOMAIN)])
    worst = 0.0
    for _ in range(50):
        a = rng.normal(scale=3.0, size=SHAPE + (2,))
        b = rng.normal(scale=3.0, size=SHAPE + (2,))
        num = np.linalg.norm(apply_prior(spec, a) - apply_prior(spec, b))
        worst = max(worst, num / np.linalg.norm(a - b))
    print(f"composition expansion ratio (informational): {worst:.6f}")


def test_composition_applies_left_to_right():
    spec = compose_priors([clip_prior(DEFAULT_DOMAIN), GaussianPrior([1.0, 1.0])])
    p = random_sino(9) * 30.0
    manual = apply_prior(GaussianPrior([1.0, 1.0]), apply_prior(clip_prior(DEFAULT_DOMAIN), p))
    assert np.array_equal(apply_prior(spec, p), manual)


def test_custom_callable_agent():
    p = random_sino(10)
    assert np.array_equal(apply_prior(lambda q: 0.5 * q, p), 0.5 * p)
    assert np.array_equal(apply_prior(lambda q: q + 1.0, p), p + 1.0)


def test_bare_callable_receives_the_view_channel_material_cube():
    seen = []
    p = random_sino(12)
    out = apply_prior(lambda q: seen.append(q) or q, p)
    assert seen[0].shape == SHAPE + (2,) and np.array_equal(seen[0], p)
    assert np.array_equal(out, p)


def test_shape_mismatch_raises():  # a 2-D (rows, material) sinogram
    for prior in (GaussianPrior([1.0, 1.0]), clip_prior(DEFAULT_DOMAIN), lambda q: q):
        with pytest.raises(ToolkitError, match="view, channel, material"):
            apply_prior(prior, random_sino(11).reshape(-1, 2))


def test_a_prior_that_changes_the_shape_is_rejected():
    p = random_sino(13)
    for prior in (lambda q: q[:, :, :1], lambda q: q.sum(axis=2), lambda q: 0.5):
        with pytest.raises(ToolkitError, match=r"returned shape .* sinogram shape \(24, 18, 2\)"):
            apply_prior(prior, p)
        with pytest.raises(ToolkitError, match="returned shape"):  # each part is checked
            apply_prior(compose_priors([prior, clip_prior(DEFAULT_DOMAIN)]), p)


@pytest.mark.parametrize("std", [[np.nan, 1.0], [np.inf, 1.0], [(1.0, np.nan), 1.0],
                                 [2.0, (-np.inf, 1.0)]])
def test_non_finite_stds_are_rejected_at_construction(std):
    with pytest.raises(ToolkitError, match="finite"):
        GaussianPrior(std)


def test_spec_validation():
    with pytest.raises(ToolkitError, match="positive"):
        GaussianPrior([0.0, 1.0])
    with pytest.raises(ToolkitError, match="empty"):
        compose_priors([])
