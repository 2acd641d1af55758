"""Entropy-commutator indicator against a straight-line reference."""

import numpy as np
import pytest

from eulerflow import physics, problems
from eulerflow.assembly import assemble
from eulerflow.indicator import IndicatorAccumulator
from eulerflow.stepper import Solver

import oracles


def random_states(rng, n, dim=2):
    U = np.zeros((n, dim + 2))
    U[:, 0] = 0.2 + 2.0 * rng.random(n)
    U[:, 1:-1] = rng.normal(0.0, 0.8, (n, dim)) * U[:, 0:1]
    p = 0.1 + rng.random(n)
    U[:, -1] = p / 0.4 + 0.5 * (U[:, 1:-1] ** 2).sum(axis=1) / U[:, 0]
    return U


def eta_over_rho(U):
    return oracles.harten_entropy(U) / U[..., 0]


def accumulated(U_i, U_j, c):
    """alpha of the nodes U_i over the stencil U_j, c, in the shape of the
    nodes: the compiled result of an accumulator on a binding of the nodes,
    their eta / rho and eta' scale, given the sums of the stencil blocks
    (oracles.indicator_sums) of eta / rho and the flux contraction."""
    fdc = oracles.flux_contraction(
        physics.flux(U_j), physics.flux(U_i)[..., None, :, :], c,
    )
    rows = np.reshape(U_i, (-1, np.shape(U_i)[-1]))
    bound = oracles.bind(U=rows, eor=eta_over_rho(rows), eta_scale=oracles.eta_scale(rows),
                         alpha=np.full(len(rows), np.nan))
    a, b = oracles.indicator_sums(U_j, c, eta_over_rho(U_i), eta_over_rho(U_j), fdc)
    acc = IndicatorAccumulator()
    acc.reset(bound, 0, len(rows))
    acc.accumulate(np.reshape(a, -1), np.reshape(b, rows.shape))
    return acc.result().reshape(np.shape(U_i)[:-1])


def test_matches_reference():
    rng = np.random.default_rng(31)
    for _ in range(25):
        card = rng.integers(3, 10)
        states = random_states(rng, card + 1)
        U_i, neighbors = states[0], states[1:]
        c_rows = rng.normal(0.0, 0.5, (card, 2))
        alpha = accumulated(U_i, neighbors, c_rows)
        expect = oracles.indicator_reference(U_i, neighbors, c_rows)
        assert float(alpha) == pytest.approx(expect, rel=1e-12, abs=1e-13)


def test_constant_state_is_exactly_zero():
    rng = np.random.default_rng(8)
    U = random_states(rng, 1)[0]
    alpha = accumulated(U, np.tile(U, (8, 1)), rng.normal(0.0, 1.0, (8, 2)))
    assert float(alpha) == 0.0


def test_result_clipped_to_unit_interval():
    rng = np.random.default_rng(17)
    for _ in range(50):
        states = random_states(rng, 6)
        alpha = float(accumulated(states[0], states[1:], rng.normal(0.0, 2.0, (5, 2))))
        assert 0.0 <= alpha <= 1.0


def test_batched_rows_match_scalar():
    rng = np.random.default_rng(40)
    nrows, card = 7, 5
    U_i = random_states(rng, nrows)
    # (rows, slots, components) stencil blocks
    U_j = np.stack([random_states(rng, nrows) for _ in range(card)], axis=1)
    cs = rng.normal(0.0, 1.0, (card, nrows, 2)).swapaxes(0, 1)
    batch = accumulated(U_i, U_j, cs)
    for r in range(nrows):
        assert batch[r] == float(accumulated(U_i[r], U_j[r], cs[r]))


def test_accumulate_before_reset_raises():
    acc = IndicatorAccumulator()
    with pytest.raises(RuntimeError):
        acc.accumulate(np.zeros(1), np.zeros((1, 4)))


@pytest.mark.parametrize("dim,width,tail", [(2, 11, 61), (3, 33, 29)])
def test_stepper_blocks_match_the_slot_loop_bitwise(dim, width, tail):
    # the stepper's padded slot rows, rough data so that most alpha are
    # neither 0 nor 1; chunk_size 1, and a chunk size that leaves one owned
    # row in the chunk across the end of the owned rows, give one-row chunks
    setup = problems.mach3_channel(dim, refine=1)
    mat = assemble(setup.mesh)
    U = random_states(np.random.default_rng(dim), mat.n, dim)
    alphas = []
    for chunk in (None, 1, tail):
        s = Solver(mat, ranks=2) if chunk is None else Solver(mat, ranks=2, chunk_size=chunk)
        s.set_state(U)
        s._phase("step0", s._k_entropies, ghosts=True)
        s._phase("step1", s._k_viscosity, "alpha", ghosts=True)
        assert s.pad_width == width
        if chunk == tail:
            assert all((rk.numbering.n_lo - 1) % tail == 0 for rk in s.ranks)
        for rk in s.ranks:
            n_lo = rk.numbering.n_lo
            ref = oracles.indicator_loop_reference(s, rk, 0, n_lo)
            assert np.array_equal(rk.alpha[:n_lo], ref)
            assert 0.1 < np.mean((ref > 0.0) & (ref < 1.0))
        alphas.append(np.concatenate([rk.alpha[:rk.numbering.n_lo] for rk in s.ranks]))
    for alpha in alphas[1:]:
        assert np.array_equal(alpha, alphas[0])
