"""Stacked forms and the single forms through them against the old single reads, and the stacked
suites against their per-sample loops."""

import math

import numpy as np
import pytest

from funnelstates import (
    BudgetError,
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
from funnelstates import statealgebra as sa
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
    add_reference,
    dagger_reference,
    dual_state_apply_reference,
    duality_loops_reference,
    element_from_terms_reference,
    element_reference,
    excitation_element_reference,
    gns_inner_reference,
    herm_eig_reference,
    kernel_distance_reference,
    left_action_reference,
    orthonormalised_reference,
    random_excitation_reference,
    scale_reference,
    spectral_decompose_reference,
    spectral_loops_reference,
    state_algebra_loops_reference,
    times_reference,
    w_isomorphism_loops_reference,
    w_isomorphism_reference,
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


# -- state algebra ---------------------------------------------------------


def _seeded_terms(state, rng, n, t):
    """n lists of t seeded (complex coefficient, top-level excitation) terms."""
    return [[(complex(*rng.standard_normal(2)), random_excitation_reference(state, rng, state.tower.levels))
             for _ in range(t)] for _ in range(n)]


def _stack_of(state, terms):
    return sa.elements_from_mats(state, [[c for c, _ in member] for member in terms],
                                 np.array([[exc.mat for _, exc in member] for member in terms]))


def _same_element(el, ref):
    assert np.array_equal(el.left, ref.left) and np.array_equal(el.core, ref.core)
    assert np.array_equal(el.right, ref.right)
    assert (el.left is el.right) == (ref.left is ref.right)


def _same_terms(terms, ref_terms):
    assert [complex(c) for c, _ in terms] == [complex(c) for c, _ in ref_terms]
    for (_, exc), (_, ref) in zip(terms, ref_terms):
        assert np.array_equal(exc.mat, ref.mat)


@pytest.mark.parametrize("n", [1, 4])
def test_stacked_state_algebra_forms_equal_the_reference(tower_state, n):
    # each stacked form, member by member, and each single form through its
    # one-member stack give the bits of the former single-element code
    state = tower_state
    rng = np.random.default_rng(20 + n)
    terms = _seeded_terms(state, rng, 3 * n, 2)
    refs = [element_from_terms_reference(state, member) for member in terms]
    stack = _stack_of(state, terms)
    for k, ref in enumerate(refs):
        _same_element(stack[k], ref)
        _same_element(sa.element_from_terms(state, terms[k]), ref)
    p1, p2, p3 = stack[0::3], stack[1::3], stack[2::3]
    r1, r2, r3 = refs[0::3], refs[1::3], refs[2::3]
    s1, s2 = [sa.element_from_terms(state, t) for t in terms[0::3]], [sa.element_from_terms(state, t) for t in terms[1::3]]

    def each(fn, *refs_):
        return [fn(*members) for members in zip(*refs_)]

    prods = sa.times(p1, p2)
    ref_prods = each(times_reference, r1, r2)
    for k in range(n):
        _same_element(prods[k], ref_prods[k])
        _same_element(sa.times(s1[k], s2[k]), ref_prods[k])
        _same_element(sa.dagger(prods)[k], dagger_reference(ref_prods[k]))
        _same_element(sa.add(p1, p2)[k], add_reference(r1[k], r2[k]))
        _same_element(sa.add(s1[k], s2[k]), add_reference(r1[k], r2[k]))
    assert prods.kernel_norm() == [el.kernel_norm() for el in ref_prods]
    assert [sa.times(a, b).kernel_norm() for a, b in zip(s1, s2)] == [el.kernel_norm() for el in ref_prods]
    # a shared-factor difference adds cores; any other difference is orthonormalised
    left, right = sa.times(sa.times(p1, p2), p3), sa.times(p1, sa.times(p2, p3))
    assert sa.kernel_distance(left, right) == [
        kernel_distance_reference(times_reference(times_reference(a, b), c), times_reference(a, times_reference(b, c)))
        for a, b, c in zip(r1, r2, r3)]
    assert sa.kernel_distance(p1, p2) == each(kernel_distance_reference, r1, r2)
    assert [sa.kernel_distance(a, b) for a, b in zip(s1, s2)] == each(kernel_distance_reference, r1, r2)
    weights = rng.standard_normal(n).tolist()
    for k, el in enumerate(sa.scale(weights, p1)[k] for k in range(n)):
        _same_element(el, scale_reference(weights[k], r1[k]))
    _same_element(sa.scale(0.3 - 0.7j, p1)[0], scale_reference(0.3 - 0.7j, r1[0]))

    # kernel reads: one vector for every member, or one per member
    x = nk.random_unit_vector(rng, state.doubled_dim)
    xs = np.array([nk.random_unit_vector(rng, state.doubled_dim) for _ in range(n)])
    assert np.array_equal(prods.kernel_apply(x), np.array([el.kernel_apply(x) for el in ref_prods]))
    assert np.array_equal(prods.kernel_apply(xs), np.array([el.kernel_apply(v) for el, v in zip(ref_prods, xs)]))
    assert np.array_equal(sa.times(s1[0], s2[0]).kernel_apply(x), ref_prods[0].kernel_apply(x))
    assert sa.gns_inner(p1, p2) == each(gns_inner_reference, r1, r2)
    assert [sa.gns_inner(a, b) for a, b in zip(s1, s2)] == each(gns_inner_reference, r1, r2)
    probes = [random_excitation_reference(state, rng, 1) for _ in range(n)]
    expected = [dual_state_apply_reference(p, el) for p, el in zip(probes, ref_prods)]
    assert sa.dual_state_apply(np.array([p.mat for p in probes]), prods) == expected
    assert [sa.dual_state_apply(p, sa.times(a, b)) for p, a, b in zip(probes, s1, s2)] == expected

    # term lists, the W image and the spectral split: per member, as the reference derives them
    for stacked, ref_els in ((p1, r1), (prods, ref_prods)):
        for terms_k, ref in zip(stacked.terms, ref_els):
            _same_terms(terms_k, ref.terms)
        assert np.array_equal(sa.w_isomorphism(stacked), np.array([w_isomorphism_reference(el) for el in ref_els]))
    for a, ref in zip(s1, r1):
        _same_terms(a.terms, ref.terms)
        assert np.array_equal(sa.w_isomorphism(a), w_isomorphism_reference(ref))
    sym = sa.scale(0.5, p1 + sa.dagger(p1))
    ref_sym = [scale_reference(0.5, add_reference(el, dagger_reference(el))) for el in r1]
    for pairs, ref in zip(sa.spectral_decompose(sym), ref_sym):
        _same_terms(pairs, spectral_decompose_reference(ref))
    _same_terms(sa.spectral_decompose(sa.scale(0.5, s1[0] + sa.dagger(s1[0]))), spectral_decompose_reference(ref_sym[0]))

    # module actions: one level matrix per member
    ops = np.array([nk.random_complex_matrix(rng, 2) for _ in range(n)])
    left_acted, right_acted = sa.bimodule_act("left", ops, p1), sa.bimodule_act("right", ops, p1)
    for k, ref in enumerate(r1):
        op = LocalOperator(1, ops[k])
        expected = left_action_reference(op, ref), orthonormalised_reference(
            state, state.act(op, ref.left), ref.core, ref.right)
        for el, exp in zip((left_acted[k], right_acted[k]), expected):
            _same_element(el, exp)
        for el, exp in zip((sa.bimodule_act("left", op, s1[k]), sa.bimodule_act("right", ops[k], s1[k])), expected):
            _same_element(el, exp)

    # excitation elements
    excs = [random_excitation_reference(state, rng, 2) for _ in range(n)]
    stacked = sa.excitation_elements(state, np.array([e.mat for e in excs]))
    for k, exc in enumerate(excs):
        _same_element(stacked[k], excitation_element_reference(exc))
        _same_element(sa.excitation_element(exc), excitation_element_reference(exc))


def test_stacked_herm_eig_and_frobenius_norms_equal_the_single_ones(rng):
    for n in (1, 2, 3, 6):
        stack = np.array([nk.random_complex_matrix(rng, n) for _ in range(5)])
        herm = (stack + nk.dagger(stack)) / 2.0
        vals, vecs = nk.herm_eig(herm)
        for k, m in enumerate(herm):
            ref_vals, ref_vecs = herm_eig_reference(m)
            assert np.array_equal(vals[k], ref_vals) and np.array_equal(vecs[k], ref_vecs)
            single_vals, single_vecs = nk.herm_eig(m)
            assert np.array_equal(single_vals, ref_vals) and np.array_equal(single_vecs, ref_vecs)
        assert nk.frobs(stack).tolist() == [nk.frob(m) for m in stack]
        assert nk.frobs(nk.dagger(stack)).tolist() == [nk.frob(nk.dagger(m)) for m in stack]


def test_a_stack_raises_for_its_first_member_over_the_budget(state, rng):
    base = _seeded_terms(state, rng, 1, 70)[0]
    over = base[:66] + base[:4]  # rank 66
    with pytest.raises(BudgetError) as err:
        _stack_of(state, [base[:70], over])
    assert err.value.suggested_budget == 70
    with pytest.raises(BudgetError) as err:
        _stack_of(state, [base[:2] * 35, over])
    assert err.value.suggested_budget == 66


def test_members_of_a_stack_agree_in_rank(state, rng):
    (a, b), = _seeded_terms(state, rng, 1, 2)
    with pytest.raises(ContractError, match="differ in kernel rank"):
        _stack_of(state, [[a, b], [a, a]])


def test_single_element_reads_reject_a_stack(state, rng):
    # evaluate and the faithfulness probe read one element; a stack's members are read one by one
    terms = _seeded_terms(state, rng, 3, 2)
    stack = _stack_of(state, terms)
    c = LocalOperator(3, nk.random_complex_matrix(rng, 16))
    for read in (lambda: stack.evaluate(c), lambda: sa.faithfulness_probe(stack)):
        with pytest.raises(ContractError, match="single element"):
            read()
    single = sa.element_from_terms(state, terms[1])
    assert stack[1].evaluate(c) == single.evaluate(c)
    assert sa.faithfulness_probe(stack[1]) == sa.faithfulness_probe(single)


def test_one_normal_call_per_stack_reads_the_element_draws(tower_state):
    # an element's draws are all standard normals: two scalars per coefficient,
    # then the (2, D, D) block of its operator
    state = tower_state
    d = state.dim
    one, per = np.random.default_rng(31), np.random.default_rng(31)
    stacked = one.standard_normal((7, 2, 2 + 2 * d * d))
    for member in stacked:
        for term in member:
            assert per.standard_normal() == term[0] and per.standard_normal() == term[1]
            assert np.array_equal(per.standard_normal((2, d, d)), term[2:].reshape(2, d, d))
    assert one.bit_generator.state == per.bit_generator.state

    env = _suite_env(state, "state_algebra", 32)
    stack = env.elements(5)
    single = env.element(3)
    ref_rng = np.random.default_rng(32)
    refs = [element_reference(state, ref_rng) for _ in range(5)]
    for k, ref in enumerate(refs):
        _same_element(stack[k], ref)
    _same_element(single, element_reference(state, ref_rng, n_terms=3))
    assert env.rng.bit_generator.state == ref_rng.bit_generator.state


def _probe_vectors(state, config):
    probe_rng = np.random.default_rng(runner.suite_seed(config.seed, "state_algebra:probes"))
    return [state.omega_vector] + [nk.random_unit_vector(probe_rng, state.doubled_dim) for _ in range(3)]


def test_state_algebra_suite_equals_its_per_sample_loops(tower_state):
    state = tower_state
    env = _suite_env(state, "state_algebra", 11)
    checks = {c["id"]: c for c in runner._suite_state_algebra(env)}
    expected = state_algebra_loops_reference(state, np.random.default_rng(11), 50, _probe_vectors(state, env.config))
    assert {key: checks[f"state_algebra/{key}"]["residual"] for key in expected} == expected


def test_w_isomorphism_suite_equals_its_per_sample_loops(tower_state):
    state = tower_state
    checks = {c["id"]: c for c in runner._suite_w_isomorphism(_suite_env(state, "w_isomorphism", 12))}
    inner, intertwining = w_isomorphism_loops_reference(state, np.random.default_rng(12), 30)
    assert checks["w_isomorphism/inner_products"]["residual"] == inner
    assert checks["w_isomorphism/intertwining"]["residual"] == intertwining


def test_duality_suite_equals_its_per_sample_loops(tower_state):
    state = tower_state
    checks = {c["id"]: c for c in runner._suite_duality(_suite_env(state, "duality", 13))}
    link, min_pos, oracle = duality_loops_reference(state, np.random.default_rng(13), 50)
    assert checks["duality/transition_link"]["residual"] == link
    assert checks["duality/positivity"]["residual"] == min_pos
    assert checks["duality/gram_oracle"]["residual"] == oracle
    assert checks["duality/faithfulness_witnesses"]["witness"] == {"found": 30, "total": 30}


def test_spectral_suite_equals_its_per_sample_loops(tower_state):
    state = tower_state
    checks = {c["id"]: c for c in runner._suite_spectral(_suite_env(state, "spectral", 14))}
    recon, orth, min_weight, worst_sum = spectral_loops_reference(state, np.random.default_rng(14), 20)
    assert checks["spectral/reconstruction"]["residual"] == recon
    assert checks["spectral/orthogonality"]["residual"] == orth
    assert checks["spectral/mixture_weights_nonnegative"]["residual"] == min_weight
    assert checks["spectral/mixture_weight_sum"]["residual"] == worst_sum
