"""Thermodynamics, entropies and flux of the gamma-law gas."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from eulerflow import physics
from eulerflow.physics import AIR, AdmissibilityError, GasConstants

import oracles


def random_admissible(rng, n, dim):
    U = np.zeros((n, dim + 2))
    U[:, 0] = 0.1 + 2.0 * rng.random(n)
    U[:, 1:-1] = rng.normal(0.0, 1.0, (n, dim)) * U[:, 0:1]
    p = 0.05 + 2.0 * rng.random(n)
    U[:, -1] = p / AIR.gm1 + 0.5 * (U[:, 1:-1] ** 2).sum(axis=1) / U[:, 0]
    return U


# values from 1e-13 to 1e14 in magnitude, zeros of both signs included
WIDE = st.tuples(st.floats(-10.0, 10.0), st.integers(-13, 13)).map(lambda t: t[0] * 10.0 ** t[1])


@given(
    x=hnp.arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 5)), elements=WIDE),
    layout=st.sampled_from(["contiguous", "transposed", "one-row", "blocks"]),
)
@settings(max_examples=300, deadline=None)
def test_component_sum_equals_numpy_sum_bitwise(x, layout):
    if layout == "transposed":
        x = np.asfortranarray(x)
    elif layout == "one-row":
        x = x[:1]
    elif layout == "blocks":
        x = np.broadcast_to(x, (3,) + x.shape) * np.array([1.0, -1.0, 1e-7])[:, None, None]
    got = physics.component_sum(x)
    want = x.sum(axis=-1)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_gas_constants():
    assert AIR.gamma == 1.4
    assert AIR.gm1 == pytest.approx(0.4)
    assert AIR.gp1_inv == pytest.approx(1.0 / 2.4)


def test_hand_values():
    # rho = 2, m = (2, 0), E = 5: eps = 5 - 4/4 = 4, p = 1.6
    U = np.array([2.0, 2.0, 0.0, 5.0])
    assert physics.internal_energy(U) == pytest.approx(4.0)
    assert physics.pressure(U) == pytest.approx(1.6)
    assert oracles.speed_of_sound(U) == pytest.approx(np.sqrt(1.4 * 1.6 / 2.0))
    assert oracles.specific_entropy_phi(U) == pytest.approx(4.0 * 2.0 ** (-1.4))
    assert oracles.harten_entropy(U) == pytest.approx(8.0 ** (1.0 / 2.4))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_flux_matches_reference(dim):
    rng = np.random.default_rng(3 + dim)
    U = random_admissible(rng, 20, dim)
    f = physics.flux(U)
    for i in range(len(U)):
        assert np.allclose(f[i], oracles.flux_of(U[i]), rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_harten_derivative_matches_finite_differences(dim):
    rng = np.random.default_rng(11 + dim)
    U = random_admissible(rng, 10, dim)
    grad = oracles.harten_entropy_derivative(U)
    h = 1e-7
    for i in range(len(U)):
        for k in range(dim + 2):
            Up, Um = U[i].copy(), U[i].copy()
            Up[k] += h
            Um[k] -= h
            fd = (oracles.harten_entropy(Up) - oracles.harten_entropy(Um)) / (2 * h)
            assert grad[i, k] == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_specific_entropy_definition():
    rng = np.random.default_rng(5)
    U = random_admissible(rng, 10, 2)
    e = physics.internal_energy(U) / U[:, 0]
    expect = np.log(e) / AIR.gm1 - np.log(U[:, 0])
    assert np.allclose(oracles.specific_entropy(U), expect, rtol=1e-15)


def test_admissibility_checks_raise():
    bad_rho = np.array([-1.0, 0.0, 0.0, 1.0])
    bad_p = np.array([1.0, 10.0, 0.0, 1.0])  # eps = 1 - 50 < 0
    assert not physics.is_admissible(bad_rho)
    assert not physics.is_admissible(bad_p)
    with pytest.raises(AdmissibilityError):
        oracles.specific_entropy(bad_rho)
    with pytest.raises(AdmissibilityError, match="rho > 0"):
        oracles.specific_entropy_phi(bad_rho)
    with pytest.raises(AdmissibilityError):
        oracles.harten_entropy_derivative(bad_p)


def test_is_admissible_batch():
    rng = np.random.default_rng(9)
    U = random_admissible(rng, 50, 2)
    assert physics.is_admissible(U).all()


@given(
    rho=st.floats(0.01, 100.0),
    u=st.floats(-10.0, 10.0),
    p=st.floats(0.01, 100.0),
)
@settings(max_examples=200, deadline=None)
def test_roundtrip_primitive(rho, u, p):
    U = np.array([rho, rho * u, p / AIR.gm1 + 0.5 * rho * u * u])
    assert physics.pressure(U) == pytest.approx(p, rel=1e-10, abs=1e-12)
    assert physics.is_admissible(U)


@pytest.mark.parametrize("gamma", [
    float("inf"), float("-inf"), float("nan"), 1.0, 0.5, -2.0, True, "2", None, 1.5 + 0j,
])
def test_gas_constants_reject_gamma_that_is_not_a_finite_real_above_one(gamma):
    with pytest.raises(ValueError):
        GasConstants(gamma)


def test_gas_constants_accept_real_numbers_above_one():
    for gamma in (1.0000001, 5.0 / 3.0, np.float64(1.4), 3, np.int64(2), 1e300):
        gas = GasConstants(gamma)
        assert np.isfinite(gas.gm1) and gas.gp1_inv > 0.0


def test_custom_gas():
    gas = GasConstants(gamma=5.0 / 3.0)
    U = np.array([1.0, 0.0, 1.0])
    assert physics.pressure(U, gas) == pytest.approx(2.0 / 3.0)


def test_pluggable_power():
    calls = []

    def counting_pow(x, y):
        calls.append(1)
        return np.power(x, y)

    physics.set_power_function(counting_pow)
    try:
        oracles.harten_entropy_derivative(np.array([1.0, 0.0, 1.0]))
        assert calls
    finally:
        physics.set_power_function(None)
