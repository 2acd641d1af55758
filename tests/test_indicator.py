"""Entropy-commutator indicator against a straight-line reference."""

import numpy as np
import pytest

from eulerflow.indicator import IndicatorAccumulator

import oracles


def random_states(rng, n, dim=2):
    U = np.zeros((n, dim + 2))
    U[:, 0] = 0.2 + 2.0 * rng.random(n)
    U[:, 1:-1] = rng.normal(0.0, 0.8, (n, dim)) * U[:, 0:1]
    p = 0.1 + rng.random(n)
    U[:, -1] = p / 0.4 + 0.5 * (U[:, 1:-1] ** 2).sum(axis=1) / U[:, 0]
    return U


def test_matches_reference():
    rng = np.random.default_rng(31)
    for _ in range(25):
        card = rng.integers(3, 10)
        states = random_states(rng, card + 1)
        U_i, neighbors = states[0], states[1:]
        c_rows = rng.normal(0.0, 0.5, (card, 2))
        acc = IndicatorAccumulator()
        acc.reset(U_i)
        for U_j, c in zip(neighbors, c_rows):
            acc.accumulate(U_j, c)
        expect = oracles.indicator_reference(U_i, neighbors, c_rows)
        assert float(acc.result()) == pytest.approx(expect, rel=1e-12, abs=1e-13)


def test_constant_state_is_exactly_zero():
    rng = np.random.default_rng(8)
    U = random_states(rng, 1)[0]
    acc = IndicatorAccumulator()
    acc.reset(U)
    for _ in range(8):
        acc.accumulate(U.copy(), rng.normal(0.0, 1.0, 2))
    assert float(acc.result()) == 0.0


def test_result_clipped_to_unit_interval():
    rng = np.random.default_rng(17)
    for _ in range(50):
        states = random_states(rng, 6)
        acc = IndicatorAccumulator()
        acc.reset(states[0])
        for U_j in states[1:]:
            acc.accumulate(U_j, rng.normal(0.0, 2.0, 2))
        alpha = float(acc.result())
        assert 0.0 <= alpha <= 1.0


def test_batched_rows_match_scalar():
    rng = np.random.default_rng(40)
    nrows, card = 7, 5
    U_i = random_states(rng, nrows)
    U_j = np.stack([random_states(rng, nrows) for _ in range(card)], axis=0)
    cs = rng.normal(0.0, 1.0, (card, nrows, 2))
    acc = IndicatorAccumulator()
    acc.reset(U_i)
    for s in range(card):
        acc.accumulate(U_j[s], cs[s])
    batch = acc.result()
    for r in range(nrows):
        one = IndicatorAccumulator()
        one.reset(U_i[r])
        for s in range(card):
            one.accumulate(U_j[s, r], cs[s, r])
        assert batch[r] == float(one.result())


def test_accumulate_before_reset_raises():
    acc = IndicatorAccumulator()
    with pytest.raises(RuntimeError):
        acc.accumulate(np.array([1.0, 0.0, 0.0, 2.5]), np.zeros(2))
