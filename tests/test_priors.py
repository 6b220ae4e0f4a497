import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmd.calibration import DEFAULT_DOMAIN
from pcmd.errors import ToolkitError
from pcmd.priors import (apply_prior, clip_prior, compose_priors, decorrelated_prior,
                         gaussian_kernel, gaussian_prior, rotation_matrix)

SHAPE = (24, 18)


def random_sino(seed, channels=2):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(SHAPE[0] * SHAPE[1], channels))


def test_gaussian_preserves_constants():
    spec = gaussian_prior([2.0, 1.0])
    p = np.full((SHAPE[0] * SHAPE[1], 2), 3.7)
    out = apply_prior(spec, p, SHAPE)
    assert np.abs(out - 3.7).max() < 1e-12


def test_gaussian_kernel_truncated_at_four_sigma():
    k = gaussian_kernel(2.0)
    assert k.size == 2 * 8 + 1
    assert k.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.array_equal(k, k[::-1])


def test_impulse_matches_dense_convolution_oracle():
    std = 2.0
    p = np.zeros((SHAPE[0] * SHAPE[1], 1))
    p[7 * SHAPE[1] + 9] = 1.0
    got = apply_prior(gaussian_prior([std]), p, SHAPE).reshape(SHAPE)
    k = gaussian_kernel(std)
    r = (k.size - 1) // 2
    k2 = np.outer(k, k)
    padded = np.pad(p.reshape(SHAPE), r, mode="symmetric")
    dense = np.empty(SHAPE)
    for i in range(SHAPE[0]):
        for j in range(SHAPE[1]):
            dense[i, j] = np.sum(padded[i:i + k.size, j:j + k.size] * k2)
    assert np.abs(got - dense).max() < 1e-12


def test_gaussian_is_linear():
    spec = gaussian_prior([1.5, 2.5])
    a, b = random_sino(1), random_sino(2)
    lhs = apply_prior(spec, 2.0 * a - 0.5 * b, SHAPE)
    rhs = 2.0 * apply_prior(spec, a, SHAPE) - 0.5 * apply_prior(spec, b, SHAPE)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_anisotropic_std_pairs():
    spec = gaussian_prior([(3.0, 1.0), 1.0])
    p = random_sino(3)
    out = apply_prior(spec, p, SHAPE).reshape(SHAPE + (2,))
    # stronger smoothing along views than channels for material 0
    dv = np.abs(np.diff(out[:, :, 0], axis=0)).mean()
    dc = np.abs(np.diff(out[:, :, 0], axis=1)).mean()
    assert dv < dc


def test_clip_examples_and_idempotence():
    spec = clip_prior(DEFAULT_DOMAIN)
    out = apply_prior(spec, np.array([[-1.0, 7.0]]), (1, 1))
    assert np.array_equal(out, [[0.0, 5.0]])
    p = random_sino(4) * 10.0
    once = apply_prior(spec, p, SHAPE)
    assert np.array_equal(apply_prior(spec, once, SHAPE), once)


@settings(max_examples=100, deadline=None)
@given(st.floats(-50, 50), st.floats(-50, 50))
def test_clip_idempotent_hypothesis(a, b):
    spec = clip_prior(DEFAULT_DOMAIN)
    p = np.array([[a, b]])
    once = apply_prior(spec, p, (1, 1))
    assert np.array_equal(apply_prior(spec, once, (1, 1)), once)
    assert np.all(once >= DEFAULT_DOMAIN.lower) and np.all(once <= DEFAULT_DOMAIN.upper)


def test_identity_rotation_equals_plain_gaussian():
    p = random_sino(5)
    plain = apply_prior(gaussian_prior([2.0, 2.0]), p, SHAPE)
    decor = apply_prior(decorrelated_prior([2.0, 2.0], rotation=np.eye(2)), p, SHAPE)
    assert np.abs(plain - decor).max() < 1e-14


def test_equal_stds_commute_with_any_rotation():
    p = random_sino(6)
    plain = apply_prior(gaussian_prior([1.8, 1.8]), p, SHAPE)
    for angle in (0.3, np.pi / 4, 1.2):
        decor = apply_prior(decorrelated_prior([1.8, 1.8], rotation=rotation_matrix(angle)),
                            p, SHAPE)
        assert np.abs(plain - decor).max() < 1e-12


def test_default_decorrelated_rotation_is_45_degrees():
    spec = decorrelated_prior([6.0, 1.5])
    expected = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
    assert np.allclose(spec.rotation, expected, atol=1e-15)


def test_nonorthonormal_rotation_rejected():
    with pytest.raises(ToolkitError, match="orthonormal"):
        decorrelated_prior([1.0, 1.0], rotation=np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_single_agents_are_nonexpansive():
    rng = np.random.default_rng(7)
    specs = [gaussian_prior([2.0, 3.0]),
             decorrelated_prior([6.0, 1.5]),
             clip_prior(DEFAULT_DOMAIN)]
    for spec in specs:
        for _ in range(50):
            a = rng.normal(scale=3.0, size=(SHAPE[0] * SHAPE[1], 2))
            b = rng.normal(scale=3.0, size=(SHAPE[0] * SHAPE[1], 2))
            num = np.linalg.norm(apply_prior(spec, a, SHAPE) - apply_prior(spec, b, SHAPE))
            assert num <= np.linalg.norm(a - b) * (1.0 + 1e-12)


def test_composition_nonexpansiveness_logged_not_asserted(capsys):
    rng = np.random.default_rng(8)
    spec = compose_priors([gaussian_prior([2.0, 2.0]), clip_prior(DEFAULT_DOMAIN)])
    worst = 0.0
    for _ in range(50):
        a = rng.normal(scale=3.0, size=(SHAPE[0] * SHAPE[1], 2))
        b = rng.normal(scale=3.0, size=(SHAPE[0] * SHAPE[1], 2))
        num = np.linalg.norm(apply_prior(spec, a, SHAPE) - apply_prior(spec, b, SHAPE))
        worst = max(worst, num / np.linalg.norm(a - b))
    print(f"composition expansion ratio (informational): {worst:.6f}")


def test_composition_applies_left_to_right():
    spec = compose_priors([clip_prior(DEFAULT_DOMAIN), gaussian_prior([1.0, 1.0])])
    p = random_sino(9) * 30.0
    manual = apply_prior(gaussian_prior([1.0, 1.0]),
                         apply_prior(clip_prior(DEFAULT_DOMAIN), p, SHAPE), SHAPE)
    assert np.array_equal(apply_prior(spec, p, SHAPE), manual)


def test_custom_callable_agent():
    p = random_sino(10)
    assert np.array_equal(apply_prior(lambda q, shape: 0.5 * q, p, SHAPE), 0.5 * p)
    assert np.array_equal(apply_prior(lambda q, s: q + 1.0, p, SHAPE), p + 1.0)


def test_shape_mismatch_raises():
    for prior in (gaussian_prior([1.0, 1.0]), lambda q, shape: q):
        with pytest.raises(ToolkitError, match="reshape"):
            apply_prior(prior, random_sino(11), (10, 10))


def test_spec_validation():
    with pytest.raises(ToolkitError, match="positive"):
        gaussian_prior([0.0, 1.0])
    with pytest.raises(ToolkitError, match="empty"):
        compose_priors([])
