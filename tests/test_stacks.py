"""Stacked forms and the single forms through them against the old single reads, and the stacked
suites against their per-sample loops."""

import math

import numpy as np
import pytest

from funnelstates import (
    ContractError,
    DegenerateExcitationError,
    GenericState,
    GenericityViolationError,
    LocalOperator,
    NotSameRayError,
    build_tower,
    lift_phase,
    make_excitation,
    norm_distance,
    overlap,
    sample_generic_state,
    transition_probability,
    uhlmann_fidelity,
)
from funnelstates import funnel, runner
from funnelstates import numkernel as nk
from funnelstates.excitations import (
    ExcitationState,
    lift_phases,
    make_excitations,
    overlaps,
    top_distances,
)
from funnelstates.transitions import transition_probabilities, uhlmann_fidelities

from conftest import (
    fuchs_slack_reference,
    fuchs_stats_reference,
    genericity_pairs_reference,
    lift_loops_reference,
    lift_phase_reference,
    make_excitation_reference,
    overlap_reference,
    pure_pairs_reference,
    top_distance_reference,
    transition_probability_reference,
    uhlmann_fidelity_reference,
    uhlmann_gaps_reference,
)

TOWERS = [(2, 2, 4), (2, 3, 6)]


@pytest.fixture(scope="module", params=TOWERS, ids=str)
def tower_state(request):
    return sample_generic_state(build_tower(request.param), seed=42)


def _mixed_level_ops(state, rng, n):
    """n seeded operators whose levels cycle through the tower."""
    levels = [1 + k % state.tower.levels for k in range(n)]
    return levels, [nk.random_complex_matrix(rng, state.tower.dim_at(level)) for level in levels]


def _stacked(state, ops):
    """Mats and scaled operators of mixed-level operators, one `make_excitations` per level, in order."""
    mats = np.empty((len(ops), state.dim, state.dim), dtype=complex)
    scaled = [None] * len(ops)
    for d in sorted({len(op) for op in ops}):
        idx = [k for k, op in enumerate(ops) if len(op) == d]
        group_mats, group_ops = make_excitations(state, [ops[k] for k in idx])
        mats[idx] = group_mats
        for k, op in zip(idx, group_ops):
            scaled[k] = op
    return mats, scaled


@pytest.mark.parametrize("n", [1, 5, 16])
def test_stacked_and_single_forms_equal_the_old_single_reads(tower_state, n):
    state = tower_state
    rng = np.random.default_rng(n)
    levels, a_ops = _mixed_level_ops(state, rng, n)
    _, b_ops = _mixed_level_ops(state, rng, n)
    a_mats, a_scaled = _stacked(state, a_ops)
    b_mats, _ = _stacked(state, b_ops)
    refs_a = [make_excitation_reference(state, LocalOperator(level, op)) for level, op in zip(levels, a_ops)]
    refs_b = [make_excitation_reference(state, LocalOperator(level, op)) for level, op in zip(levels, b_ops)]
    singles_a = [make_excitation(state, LocalOperator(level, op)) for level, op in zip(levels, a_ops)]
    singles_b = [make_excitation(state, LocalOperator(level, op)) for level, op in zip(levels, b_ops)]
    for k, (a, b) in enumerate(zip(refs_a, refs_b)):
        assert np.array_equal(a_mats[k], a.mat) and np.array_equal(b_mats[k], b.mat)
        assert np.array_equal(a_scaled[k], a.op.matrix)
        assert np.array_equal(singles_a[k].mat, a.mat) and np.array_equal(singles_b[k].mat, b.mat)
        assert np.array_equal(singles_a[k].op.matrix, a.op.matrix) and singles_a[k].level == a.level
    pairs = list(zip(refs_a, refs_b))
    single_pairs = list(zip(singles_a, singles_b))
    for stacked, single, reference in [
            (overlaps, overlap, overlap_reference),
            (transition_probabilities, transition_probability, transition_probability_reference),
            (top_distances, lambda a, b: norm_distance(a, b, scope="top"), top_distance_reference),
            (uhlmann_fidelities, uhlmann_fidelity, uhlmann_fidelity_reference)]:
        expected = [reference(a, b) for a, b in pairs]
        assert np.asarray(stacked(a_mats, b_mats)).tolist() == expected
        assert [single(a, b) for a, b in single_pairs] == expected

    # B = t A, one phase per pair: the stacked lift reads each pair as the old single one does
    ts = np.exp(2j * np.pi * rng.random(n))
    t_mats, _ = _stacked(state, [t * op for t, op in zip(ts, a_scaled)])
    rephased = [make_excitation_reference(state, LocalOperator(level, t * a.op.matrix))
                for level, t, a in zip(levels, ts, refs_a)]
    assert np.array_equal(t_mats, np.array([e.mat for e in rephased]))
    phases = lift_phases(a_mats, t_mats)
    expected = [lift_phase_reference(a, e) for a, e in zip(refs_a, rephased)]
    assert [complex(p) for p in phases] == expected
    assert [lift_phase(a, e) for a, e in zip(singles_a, rephased)] == expected
    assert max(abs(phases - ts)) <= 1e-9


def _raised(fn, *args):
    with pytest.raises(Exception) as err:
        fn(*args)
    return type(err.value), str(err.value)


def test_a_stack_raises_what_its_first_bad_member_raises(state, pure_state):
    rng = np.random.default_rng(3)
    ops = [nk.random_complex_matrix(rng, 4) for _ in range(5)]
    ops[2] = ops[2].copy()
    ops[2][1, 1] = np.nan
    single = _raised(make_excitation_reference, state, LocalOperator._validated(2, ops[2]))
    assert single[0] is ContractError
    assert _raised(make_excitation, state, LocalOperator._validated(2, ops[2])) == single
    assert _raised(make_excitations, state, ops) == single

    # an operator that annihilates a pure reference vector leaves no excitation
    v = pure_state.basis[:, 0]
    killer = np.eye(16) - np.outer(v, v.conj())
    top = [nk.random_complex_matrix(rng, 16) for _ in range(4)]
    top[3] = killer
    single = _raised(make_excitation_reference, pure_state, LocalOperator(3, killer))
    assert single[0] is DegenerateExcitationError
    assert _raised(make_excitation, pure_state, killer) == single
    assert _raised(make_excitations, pure_state, top) == single


def test_stacked_readers_reject_a_non_finite_member_as_the_single_ones(state):
    rng = np.random.default_rng(4)
    mats, _ = make_excitations(state, [nk.random_complex_matrix(rng, 2) for _ in range(3)])
    bad = mats.copy()
    bad[1, 0, 0] = np.nan
    a, b = ExcitationState(state, mats[1]), ExcitationState(state, bad[1])
    for stacked, single, reference in [
            (overlaps, overlap, overlap_reference),
            (transition_probabilities, transition_probability, transition_probability_reference),
            (top_distances, lambda x, y: norm_distance(x, y, scope="top"), top_distance_reference),
            (uhlmann_fidelities, uhlmann_fidelity, uhlmann_fidelity_reference),
            (lift_phases, lift_phase, lift_phase_reference)]:
        expected = _raised(reference, a, b)
        assert expected[0] is ContractError
        assert _raised(single, a, b) == expected
        with pytest.raises(ContractError):
            stacked(mats, bad)


@pytest.mark.parametrize("order", ["violation_first", "distinct_first"])
def test_lift_phases_raise_what_the_pair_loop_raises_first(state, order):
    # on a level-1-tracial state distinct level-1 unitaries give equal states
    # whose representatives are not phase multiples; a pair of distinct
    # states fails the other way.  The stack fails on its first failing pair.
    tracial = _tracial_state(state.tower)
    rng = np.random.default_rng(10)
    u, v, w = (nk.haar_unitary(rng, 2) for _ in range(3))
    g = nk.random_complex_matrix(rng, 2)  # not a multiple of a unitary: a distinct state
    a_ops = [u, u, v, u]
    b_ops = [np.exp(0.3j) * u, v, g, u] if order == "violation_first" else [np.exp(0.3j) * u, g, w, u]
    refs = [(make_excitation_reference(tracial, LocalOperator(1, a)),
             make_excitation_reference(tracial, LocalOperator(1, b))) for a, b in zip(a_ops, b_ops)]

    def pair_loop():
        return [lift_phase_reference(a, b) for a, b in refs]

    expected = _raised(pair_loop)
    assert expected[0] is (GenericityViolationError if order == "violation_first" else NotSameRayError)
    a_mats, _ = make_excitations(tracial, a_ops)
    b_mats, _ = make_excitations(tracial, b_ops)
    assert _raised(lift_phases, a_mats, b_mats) == expected


def test_trace_norms_take_stacks(rng):
    stack = np.array([nk.random_complex_matrix(rng, 6) for _ in range(4)])
    herm = stack + nk.dagger(stack)
    assert isinstance(nk.trace_norm(stack[0]), float) and isinstance(nk.herm_trace_norm(herm[0]), float)
    assert nk.trace_norm(stack).tolist() == [nk.trace_norm(m) for m in stack]
    assert nk.herm_trace_norm(herm).tolist() == [nk.herm_trace_norm(m) for m in herm]
    assert nk.herm_trace_norm(herm[:0]).shape == (0,)


def test_stacks_group_draws_by_size_in_order_and_hold_at_most_stack_entries():
    # at 1024 entries a stack holds 4 draws: the size-32 stack is yielded as
    # soon as its fourth draw is pulled, and the partial stacks follow,
    # smallest size first
    sizes = [4, 32, 4, 32, 32, 32, 4, 32, 32]
    draws = [(np.zeros((d, d)), k) for k, d in enumerate(sizes)]
    pulled = []
    stacks = nk.stacks((pulled.append(k) or draw for k, draw in enumerate(draws)), 1024)
    assert next(stacks)[1] == (1, 3, 4, 5) and pulled == list(range(6))
    assert [trials for _, trials in stacks] == [(0, 2, 6), (7, 8)]
    assert [len(ops) for (ops,) in nk.stacks(((np.zeros((16, 16)),) for _ in range(9)), 16 * 16)] == [9]
    assert [len(ops) for ops, _ in nk.stacks(((np.zeros((4, 4)), k) for k in range(600)), 16)] == [256, 256, 88]
    assert [len(ops) for ops, _ in nk.stacks(((np.zeros((2, 2)), k) for k in range(3)), 65536)] == [1, 1, 1]
    # entries as a function of the size: each size gets its own stack length
    mixed = [(np.zeros((d, d)), k) for k, d in enumerate([16, 4, 16, 4, 16, 16, 4])]
    assert [trials for _, trials in nk.stacks(mixed, lambda d: 1024 if d == 16 else 2048)] == [
        (1, 3), (0, 2, 4, 5), (6,)]


def test_lift_phase_decides_equal_states_without_eigenvalues(state, rng, monkeypatch):
    a = make_excitation(state, LocalOperator(2, nk.random_complex_matrix(rng, 4)))
    b = make_excitation(state, LocalOperator(2, np.exp(0.7j) * a.op.matrix))
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or eigvalsh(m))
    assert abs(lift_phase(a, b) - np.exp(0.7j)) <= 1e-12
    assert calls == []
    # a pair the screen does not pass takes the exact trace norm, which the error carries
    c = make_excitation(state, LocalOperator(2, nk.random_complex_matrix(rng, 4)))
    with pytest.raises(NotSameRayError) as err:
        lift_phase(a, c)
    assert err.value.distance == norm_distance(a, c, scope="top")


def _suite_env(state, suite_id, seed):
    info = runner.SUITES[suite_id]
    config = runner.ScenarioConfig(tower_dims=state.tower.factor_dims, suites=(suite_id,))
    return runner.SuiteEnv(config, suite_id, np.random.default_rng(seed), state.tower, state,
                           count=info.count, tol=info.tol)


def test_fuchs_suite_equals_its_per_sample_loops(tower_state):
    state = tower_state
    checks = {c["id"]: c for c in runner._suite_fuchs(_suite_env(state, "fuchs", 5))}
    sym, chain, excess, lo, hi = fuchs_stats_reference(state, np.random.default_rng(5), 200)
    assert checks["fuchs/symmetry"]["residual"] == sym
    assert checks["fuchs/chain_consistency"]["residual"] == chain
    assert checks["fuchs/range"]["residual"] == excess
    assert checks["fuchs/bound_min_slack"]["residual"] == lo
    assert checks["fuchs/mixed_strict_gap"]["residual"] == hi
    assert checks["fuchs/mixed_strict_gap"]["witness"] == {"max_slack": hi}
    pure_env = _suite_env(state, "fuchs", 5)
    worst = max(abs(fuchs_slack_reference(a, b)) for a, b in pure_pairs_reference(pure_env))
    assert checks["fuchs/pure_equality"]["residual"] == worst


def test_uhlmann_suite_equals_its_per_sample_loops(tower_state):
    state = tower_state
    checks = {c["id"]: c for c in runner._suite_uhlmann(_suite_env(state, "uhlmann", 6))}
    gaps = uhlmann_gaps_reference(state, np.random.default_rng(6), 200)
    assert checks["uhlmann/dominates"]["residual"] == min(gaps)
    assert checks["uhlmann/mixed_strict_gap"]["residual"] == max(gaps)
    assert checks["uhlmann/mixed_strict_gap"]["witness"] == {"max_gap": max(gaps)}
    pure_env = _suite_env(state, "uhlmann", 6)
    worst = max(abs(uhlmann_fidelity_reference(a, b) - transition_probability_reference(a, b))
                for a, b in pure_pairs_reference(pure_env))
    assert checks["uhlmann/pure_equality"]["residual"] == worst


def test_lift_suite_equals_its_per_sample_loops(tower_state):
    # the tracial state is not separating, so its genericity self-test fails;
    # the stacked loops still read what the per-sample ones read
    for state in (tower_state, _tracial_state(tower_state.tower)):
        checks = {c["id"]: c for c in runner._suite_lift(_suite_env(state, "lift", 7))}
        worst_phase, min_dist = lift_loops_reference(state, np.random.default_rng(7), 100)
        assert checks["lift/phase_recovery"]["residual"] == worst_phase
        assert checks["lift/injectivity_gap"]["residual"] == min_dist
    assert checks["lift/genericity_selftest"]["status"] == "fail"


def _tracial_state(tower):
    """A level-1-tracial reference: distinct level-1 unitary rays give equal states."""
    rng = np.random.default_rng(0)
    k = tower.top_dim // 2
    tau = nk.random_complex_matrix(rng, k)
    tau = tau @ nk.dagger(tau)
    tau /= np.trace(tau).real
    return GenericState(tower=tower, lam=np.kron(np.eye(2) / 2, tau), seed=0)


@pytest.mark.parametrize("gap", [math.inf, 1.0, 0.2, funnel.INJECTIVITY_GAP])
def test_genericity_witnesses_equal_the_per_pair_loop(tower_state, gap, monkeypatch):
    # a pair more than the gap apart in Frobenius norm is cleared unread; the
    # least trace norm at or below the gap, the failure's witness, stays exact
    monkeypatch.setattr(funnel, "INJECTIVITY_GAP", gap)
    for state in (tower_state, _tracial_state(tower_state.tower)):
        failures = funnel.check_genericity(state, trials=10, rng=np.random.default_rng(8))
        least = genericity_pairs_reference(state, 10, np.random.default_rng(8))
        expected = {f"lift_injectivity:{level}": {"level": level, "kind": kind, "distance": dist}
                    for level, (dist, kind) in least.items() if not dist > gap}
        assert {k: v for k, v in failures.items() if k.startswith("lift_injectivity")} == expected
    assert "lift_injectivity:1" in expected


def test_genericity_clears_distant_pairs_without_eigenvalues(state, monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or eigvalsh(m))
    assert funnel.check_genericity(state, trials=10, rng=np.random.default_rng(9)) == {}
    assert calls == []
