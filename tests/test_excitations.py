import itertools

import numpy as np
import pytest

from funnelstates import (
    ContractError,
    DegenerateExcitationError,
    DegenerateSuperpositionError,
    LocalOperator,
    NotNullCombinationError,
    NotSameRayError,
    apply_observable,
    build_tower,
    find_null_combination,
    identity_excitation,
    lift_phase,
    make_excitation,
    minimal_extension_projection,
    norm_distance,
    overlap,
    sample_generic_state,
    superpose,
    vacuum_detector,
)
from funnelstates import numkernel as nk
from funnelstates import runner
from funnelstates import statealgebra as sa
from funnelstates.excitations import (STATE_EQ_TOL, _excitation_with_vector, functional_norm,
                                      random_excitation)

from conftest import kron_embed, random_hermitian


def test_identity_excitation_reproduces_reference(state, rng):
    ident = identity_excitation(state)
    c = random_hermitian(rng, 16)
    assert abs(ident.evaluate(c) - np.trace(state.lam @ c)) <= 1e-12


def test_scaling_gives_same_state(state):
    a = LocalOperator(level=1, matrix=np.eye(2, dtype=complex))
    b = LocalOperator(level=1, matrix=2.0 * np.eye(2, dtype=complex))
    ea, eb = make_excitation(state, a), make_excitation(state, b)
    assert norm_distance(ea, eb, scope="top") <= 1e-12


def test_density_is_normalized_conjugation(state, rng):
    exc = random_excitation(state, rng, level=1)
    a_top = kron_embed(state.tower, 1, exc.op.matrix)
    rho = a_top @ state.lam @ nk.dagger(a_top)
    np.testing.assert_allclose(exc.rho, rho, atol=1e-12)
    assert np.trace(exc.rho).real == pytest.approx(1.0, abs=1e-10)
    assert exc.evaluate(LocalOperator(1, np.eye(2))) == pytest.approx(1.0, abs=1e-12)


class CountingGenerator:
    """A Generator stand-in that counts its `standard_normal` calls."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.normal_calls = 0

    def standard_normal(self, *args, **kwargs):
        self.normal_calls += 1
        return self.rng.standard_normal(*args, **kwargs)


@pytest.mark.parametrize("level", [1, 2, 3])
def test_random_excitation_draws_once(state, level):
    rng = CountingGenerator(5)
    exc = random_excitation(state, rng, level=level)
    assert rng.normal_calls == 1
    # the library's own draw is the operator, unvalidated but equal to a checked one
    d = state.tower.dim_at(level)
    checked = make_excitation(state, LocalOperator(level, nk.random_complex_matrix(np.random.default_rng(5), d)))
    assert exc.level == level
    np.testing.assert_array_equal(exc.mat, checked.mat)
    np.testing.assert_array_equal(exc.op.matrix, checked.op.matrix)


@pytest.mark.parametrize("level", [0, True, 4])  # the default tower has L = 3 levels
def test_random_excitation_rejects_a_bad_level_before_drawing(state, level):
    rng = np.random.default_rng(9)
    before = rng.bit_generator.state
    with pytest.raises(ContractError, match="level must be an integer"):
        random_excitation(state, rng, level=level)
    assert rng.bit_generator.state == before


def test_degenerate_excitation_rejected(pure_state):
    # with a rank-one reference there are operators annihilating the vector
    v = pure_state.basis[:, 0]
    killer = np.eye(16, dtype=complex) - np.outer(v, v.conj())
    with pytest.raises(DegenerateExcitationError):
        make_excitation(pure_state, LocalOperator(3, killer @ np.outer(v, v.conj())))


def test_overflowing_excitation_norm_is_a_contract_error(state):
    # every entry is finite, but ||A.omega||^2 overflows: no NaN excitation comes out
    with pytest.raises(ContractError):
        make_excitation(state, LocalOperator(1, 1e160 * np.eye(2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_vector_is_a_contract_error(state, bad):
    v = state.omega_vector.copy()
    v[3] = bad
    with pytest.raises(ContractError):
        _excitation_with_vector(state, v)


def test_vanishing_vector_is_degenerate(state):
    with pytest.raises(DegenerateExcitationError):
        _excitation_with_vector(state, 1e-7 * state.omega_vector)


def test_vector_built_excitation_holds_the_normalized_vector(state, rng):
    # entries +-1, +-i give ||v|| = 16 = sqrt(256), so v / ||v|| is exact in floating point
    v = np.array([1.0, 1j, -1.0, -1j])[rng.integers(4, size=state.doubled_dim)]
    exc = _excitation_with_vector(state, v)
    np.testing.assert_array_equal(exc.vector, v / 16.0)
    # a generic vector: the operator X = mat lam^{-1/2} gives it back through act
    w = nk.random_complex_matrix(rng, state.doubled_dim, 1).ravel()
    exc = _excitation_with_vector(state, w)
    unit = w / np.linalg.norm(w)
    np.testing.assert_allclose(exc.vector, unit, rtol=0, atol=1e-15)
    back = state.act(exc.op, state.sqrt_lam).ravel()
    assert np.linalg.norm(back - unit) <= 1e-10 * np.linalg.norm(unit)
    assert exc.level == state.tower.levels


def test_vector_built_excitation_on_a_pure_reference(pure_state, rng):
    # X.omega for a top-level X lies in the GNS space, and is held as given
    x = nk.random_complex_matrix(rng, pure_state.dim)
    v = pure_state.act(x, pure_state.sqrt_lam).ravel()
    exc = _excitation_with_vector(pure_state, v)
    np.testing.assert_array_equal(exc.vector, v * (1.0 / np.sqrt(np.vdot(v, v).real)))
    assert exc.level == pure_state.tower.levels
    # without lam^{-1/2} there is no operator to derive: reading it names the floor
    with pytest.raises(ContractError, match="spectrum floor"):
        exc.op


def test_vector_off_the_gns_space_is_rejected(pure_state, rng):
    # a generic doubled-space vector is no A.omega on a rank-one reference;
    # it is rejected, not projected onto the support
    w = nk.random_complex_matrix(rng, pure_state.doubled_dim, 1).ravel()
    with pytest.raises(ContractError, match="GNS space"):
        _excitation_with_vector(pure_state, w)


def test_state_algebra_excitations_of_a_pure_reference_superpose_and_respond(rng):
    # superpose, apply_observable and lift_phase are linear maps of `mat`, so they
    # hold on a reference without lam^{-1/2}, "irrespective of the global type"
    s = sample_generic_state(build_tower((2, 2, 4)), 42, "pure")
    terms = [(w, random_excitation(s, rng, level=3)) for w in (0.75, 0.25)]
    (_, x), (_, y) = sa.spectral_decompose(sa.element_from_terms(s, terms))
    out = superpose(1.0, x, 1.0, y)
    expected = (x.canonical_mat + y.canonical_mat) / np.sqrt(2.0)
    assert nk.frob(out.mat - expected) <= 1e-12
    det = vacuum_detector(s)
    acted = apply_observable(det, x)
    assert nk.frob(acted.mat - det.unitary @ x.mat) <= 1e-12
    assert lift_phase(x, x) == pytest.approx(1.0, abs=1e-12)


def test_evaluate_hermitian_is_real(state, rng):
    exc = random_excitation(state, rng, level=2)
    c = random_hermitian(rng, 4)
    assert abs(np.imag(exc.evaluate(LocalOperator(2, c)))) <= 1e-12


def test_evaluate_extension_projection_cross_module(state):
    psi = minimal_extension_projection(state, 1)
    ident = identity_excitation(state)
    via_state = ident.evaluate(LocalOperator(2, np.outer(psi, np.conj(psi))))
    via_reduction = np.vdot(psi, state.reduced(2) @ psi)
    assert abs(via_state - via_reduction) <= 1e-12


# -- lift ---------------------------------------------------------------


def test_lift_phase_imaginary_unit(state, rng):
    a = random_excitation(state, rng, level=1)
    b = make_excitation(state, LocalOperator(1, 1j * a.op.matrix))
    assert lift_phase(a, b) == pytest.approx(1j, abs=1e-12)


def test_lift_phase_generic_angle(state, rng):
    a = random_excitation(state, rng, level=2)
    t = np.exp(0.37j)
    b = make_excitation(state, LocalOperator(2, t * a.op.matrix))
    assert abs(lift_phase(a, b) - t) <= 1e-9


def test_lift_phase_rejects_distinct_rays(state, rng):
    a = random_excitation(state, rng, level=1)
    b = random_excitation(state, rng, level=1)
    with pytest.raises(NotSameRayError) as err:
        lift_phase(a, b)
    assert err.value.distance > 1e-6


def test_lift_phase_flags_degenerate_reference(rng):
    # with a tracial first factor, distinct level-1 unitaries induce the same
    # functional but are no phase multiples: the lift reports the breakdown
    from funnelstates import GenericityViolationError, build_tower
    from funnelstates.funnel import GenericState

    tower = build_tower((2, 2, 4))
    tau = nk.random_complex_matrix(rng, 8)
    tau = tau @ nk.dagger(tau)
    tau /= np.trace(tau).real
    degenerate = GenericState(tower=tower, lam=np.kron(np.eye(2) / 2, tau), seed=0)
    a = make_excitation(degenerate, LocalOperator(1, nk.haar_unitary(rng, 2)))
    b = make_excitation(degenerate, LocalOperator(1, nk.haar_unitary(rng, 2)))
    with pytest.raises(GenericityViolationError):
        lift_phase(a, b)


def test_gauge_stability(state, rng):
    a = random_excitation(state, rng, level=1)
    b = make_excitation(state, LocalOperator(1, np.exp(1.9j) * a.op.matrix))
    assert nk.frob(a.canonical_mat - b.canonical_mat) <= 1e-12


# -- superposition ------------------------------------------------------


def test_superpose_trivial_coefficient(state, rng):
    a = random_excitation(state, rng, level=1)
    b = random_excitation(state, rng, level=1)
    out = superpose(1.0, a, 0.0, b)
    assert norm_distance(out, a, scope="top") <= 1e-12


def _orthogonal_partner(state, exc, rng):
    """An excitation whose doubled-space vector is orthogonal to exc's."""
    g = nk.random_complex_matrix(rng, 16)
    v = (g @ state.sqrt_lam).ravel()
    v = v - np.vdot(exc.vector, v) * exc.vector
    op = v.reshape(16, 16) @ state.inv_sqrt_lam
    return make_excitation(state, LocalOperator(3, op))


def test_superpose_orthogonal_normalization(state, rng):
    a = random_excitation(state, rng, level=3)
    b = _orthogonal_partner(state, a, rng)
    assert abs(overlap(a, b)) <= 1e-10
    c = 1 / np.sqrt(2)
    out = superpose(c, a, c, b)
    # the canonical representatives stay orthogonal, so the norm of
    # c_A A.omega + c_B B.omega is |c_A|^2 + |c_B|^2 = 1: vector unchanged
    expected = c * a.canonical_mat + c * b.canonical_mat
    assert nk.frob(out.mat - expected) <= 1e-10


def test_superpose_destructive_cancellation(state, rng):
    a = random_excitation(state, rng, level=1)
    t = np.exp(0.6j)
    b = make_excitation(state, LocalOperator(1, t * a.op.matrix))
    # B = tA is the same state, with the same canonical representative, so
    # A - B is exactly zero
    with pytest.raises(DegenerateSuperpositionError):
        superpose(1.0, a, -1.0, b)


@pytest.mark.parametrize("seed", range(5))
def test_superpose_is_a_function_of_states(state, seed):
    rng = np.random.default_rng(seed)
    a = random_excitation(state, rng, level=3)
    b = random_excitation(state, rng, level=2)
    c_a, c_b = nk.random_complex_matrix(rng, 2, 1).ravel()
    out = superpose(c_a, a, c_b, b)
    for k in range(3):
        # the same states from rephased and rescaled operators
        t = rng.uniform(0.1, 10.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        a2 = make_excitation(state, LocalOperator(a.level, t * a.op.matrix))
        b2 = make_excitation(state, LocalOperator(b.level, t * b.op.matrix))
        for pair in ((a2, b), (a, b2), (a2, b2)):
            again = superpose(c_a, pair[0], c_b, pair[1])
            assert norm_distance(again, out, scope="top") <= 1e-12
            assert nk.frob(again.canonical_mat - out.canonical_mat) <= 1e-12


# -- distances ----------------------------------------------------------


def test_norm_distance_zero_on_self(state, rng):
    a = random_excitation(state, rng, level=2)
    for scope in (1, 2, "top", "full_bh"):
        assert norm_distance(a, a, scope=scope) <= 1e-12


@pytest.mark.parametrize("scope", [0, -1, 4, True, 1.0, "bogus"])
def test_norm_distance_rejects_meaningless_scope(state, rng, scope):
    # a scope is "top", "full_bh" or a level 1..L of the (2, 2, 4) tower
    a = random_excitation(state, rng, level=1)
    with pytest.raises(ContractError):
        norm_distance(a, a, scope=scope)


def test_norm_distance_orthogonal_full_bh(state, rng):
    a = random_excitation(state, rng, level=3)
    b = _orthogonal_partner(state, a, rng)
    assert norm_distance(a, b, scope="full_bh") == pytest.approx(2.0, abs=1e-9)


def test_norm_distance_monotone_in_scope(state, rng):
    for _ in range(50):
        a = random_excitation(state, rng, level=2)
        b = random_excitation(state, rng, level=2)
        d1 = norm_distance(a, b, scope=1)
        d_top = norm_distance(a, b, scope="top")
        d_bh = norm_distance(a, b, scope="full_bh")
        assert d1 <= d_top + 1e-10
        assert d_top <= d_bh + 1e-10


def test_norm_distance_variational_sweep(state, rng):
    a = random_excitation(state, rng, level=2)
    b = random_excitation(state, rng, level=2)
    tn = norm_distance(a, b, scope="top")
    delta = a.rho - b.rho
    # the sweep contains the eigh-derived sign operator plus random directions
    eig = nk.herm_eig(delta)
    candidates = [eig.eigenvectors @ np.diag(np.sign(eig.eigenvalues)) @ nk.dagger(eig.eigenvectors)]
    for _ in range(500):
        h = random_hermitian(rng, 16)
        candidates.append(h / np.linalg.norm(h, 2))
    values = [abs(np.trace(delta @ c)) for c in candidates]
    assert max(values) <= tn + 1e-10
    assert max(values) >= 0.98 * tn


def test_mismatched_reference_states_rejected(state, small_state, rng):
    a = random_excitation(state, rng, level=1)
    b = random_excitation(small_state, rng, level=1)
    with pytest.raises(ContractError):
        norm_distance(a, b, scope="top")


# -- null combinations --------------------------------------------------


def _dependent_family(state, rng, level=1, count=5):
    d = state.tower.dim_at(level)
    a = nk.random_complex_matrix(rng, d)
    b = nk.random_complex_matrix(rng, d)
    out = []
    for _ in range(count):
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        beta = complex(rng.standard_normal(), rng.standard_normal())
        out.append(make_excitation(state, LocalOperator(level, alpha * a + beta * b)))
    return out


def _transfer_ratio(coeffs, excs, c_op) -> float:
    """||sum_m c_m A_m* C A_m||_F / ||C||_F, one product per member at the common level."""
    tower = excs[0].state.tower
    common = max([c_op.level] + [e.level for e in excs])
    c = kron_embed(tower, c_op.level, c_op.matrix, common)
    acc = np.zeros_like(c)
    for cm, exc in zip(coeffs, excs):
        a = kron_embed(tower, exc.level, exc.op.matrix, common)
        acc = acc + cm * (nk.dagger(a) @ c @ a)
    return nk.frob(acc) / nk.frob(c)


def _random_operator(tower, rng, level):
    return LocalOperator(level, nk.random_complex_matrix(rng, tower.dim_at(level)))


def test_exact_pair_cancellation(state, rng):
    a = random_excitation(state, rng, level=1)
    for trial in range(20):
        c_op = _random_operator(state.tower, rng, 1 + trial % state.tower.levels)
        assert _transfer_ratio([1.0, -1.0], [a, a], c_op) <= 1e-14


def test_null_combination_found_and_transfers(state, rng):
    excs = _dependent_family(state, rng)
    coeffs = find_null_combination(excs)
    assert functional_norm(coeffs, excs) <= 1e-9
    worst = max(_transfer_ratio(coeffs, excs, _random_operator(state.tower, rng, 1 + t % 3))
                for t in range(50))
    assert 0.0 < worst <= 1e-7


def _null_transfer_env(state, combos):
    config = runner.ScenarioConfig(suites=("null_transfer",))
    return runner.SuiteEnv(config, "null_transfer", np.random.default_rng(9), state.tower, state,
                           count=combos, tol=runner.SUITES["null_transfer"].tol)


@pytest.mark.parametrize("dims", [(2, 2, 4), (2, 3, 6)])
def test_compressions_match_the_dense_kron_product(dims, rng):
    # (A_m (x) 1)* C (A_m (x) 1) by reshapes, against the dense kron products at
    # the common level, for C below, at and above the A_m's level
    tower = build_tower(dims)
    levels = range(1, tower.levels + 1)
    for a_level, c_level in itertools.product(levels, levels):
        a_ops = np.stack([nk.random_complex_matrix(rng, tower.dim_at(a_level)) for _ in range(3)])
        c = nk.random_complex_matrix(rng, tower.dim_at(c_level))
        common = max(a_level, c_level)
        c_up = kron_embed(tower, c_level, c, common)
        got = runner._compressions(a_ops, c)
        for a, prod in zip(a_ops, got):
            a_up = kron_embed(tower, a_level, a, common)
            dense = nk.dagger(a_up) @ c_up @ a_up
            assert nk.frob(prod - dense) <= 1e-13 * nk.frob(dense), (a_level, c_level)


@pytest.mark.parametrize("combos", [1, 2])
def test_null_transfer_batched_matches_per_matrix_loop(state, combos):
    # the suite's first combos null combinations sit at levels 1..combos
    checks = runner._suite_null_transfer(_null_transfer_env(state, combos))
    # the same draws, one dense kron product A_m* C A_m per member
    env = _null_transfer_env(state, combos)
    levels = state.tower.levels
    worst = 0.0
    for k in range(combos):
        excs = runner._null_family(env, 1 + k)
        coeffs = find_null_combination(excs)
        for trial in range(50):
            c_op = _random_operator(state.tower, env.rng, 1 + trial % levels)
            ratio = _transfer_ratio(coeffs, excs, c_op)
            if ratio > worst:
                worst, witness = ratio, {"combination": k, "a_level": 1 + k, "trial": trial,
                                         "c_level": c_op.level, "ratio": ratio}
    # a different product order rounds differently, but names the same worst draw
    assert checks[0].check_id == "null_transfer/max_ratio"
    assert abs(checks[0].residual - worst) <= 1e-15 and worst > 0.0
    suite_witness = dict(checks[0].witness)
    assert suite_witness.pop("ratio") == checks[0].residual
    del witness["ratio"]
    assert suite_witness == witness
    # the witness names the worst draw: the suite replays it alone with
    # sample count combination + 1, bit for bit
    replay = runner._suite_null_transfer(_null_transfer_env(state, witness["combination"] + 1))
    assert replay[0].witness == checks[0].witness


def test_independent_family_rejected(state, rng, monkeypatch):
    excs = [random_excitation(state, rng, level=1) for _ in range(3)]
    with pytest.raises(NotNullCombinationError):
        find_null_combination(excs)
    assert functional_norm([1.0, 1.0, 1.0], excs) > STATE_EQ_TOL
    # the suite transfers only a combination whose functional vanishes
    monkeypatch.setattr(runner, "find_null_combination", lambda family: np.ones(len(family)))
    with pytest.raises(NotNullCombinationError):
        runner._suite_null_transfer(_null_transfer_env(state, 1))


def test_null_combination_of_nothing_rejected():
    with pytest.raises(ContractError):
        find_null_combination([])
    # an IndexError on excs[0] before
    with pytest.raises(ContractError):
        functional_norm([], [])


def test_null_combinations_take_one_reference_state(state, rng):
    # two states of one tower have densities of one shape: their sum was taken silently
    other = sample_generic_state(state.tower, seed=43)
    a = random_excitation(state, rng, level=1)
    c = random_excitation(other, rng, level=1)
    with pytest.raises(ContractError):
        find_null_combination([a, c])
    with pytest.raises(ContractError):
        functional_norm([1.0, -1.0], [a, c])


def test_functional_norm_takes_one_coefficient_per_excitation(state, rng):
    # zip dropped the third coefficient
    a, b = (random_excitation(state, rng, level=1) for _ in range(2))
    with pytest.raises(ContractError):
        functional_norm([1.0, -1.0, 2.0], [a, b])


# -- extremality --------------------------------------------------------


def _mixture_distance(target, candidates) -> float:
    return nk.trace_norm(sum(p * exc.rho for p, exc in candidates) - target.rho)


def test_extremality_trivial_decomposition(state, rng):
    a = random_excitation(state, rng, level=1)
    assert _mixture_distance(a, [(1.0, a)]) <= STATE_EQ_TOL
    assert lift_phase(a, a) == pytest.approx(1.0, abs=1e-12)


def test_extremality_phase_collapse(state, rng):
    a = random_excitation(state, rng, level=1)
    b = make_excitation(state, LocalOperator(1, 1j * a.op.matrix))
    assert _mixture_distance(a, [(0.5, a), (0.5, b)]) <= STATE_EQ_TOL
    # both components lie on the target's ray
    assert lift_phase(a, a) == pytest.approx(1.0, abs=1e-9)
    assert lift_phase(b, a) == pytest.approx(-1j, abs=1e-9)


def test_extremality_rejects_distinct_mixture(state, rng):
    a = random_excitation(state, rng, level=1)
    c = random_excitation(state, rng, level=1)
    d = random_excitation(state, rng, level=1)
    assert _mixture_distance(a, [(0.5, c), (0.5, d)]) > 1e-6


def test_compression_is_rank_one(state, rng):
    # A* E_n A, one level above the operator, is rank one with weight omega(A A*)
    for level in (1, 2):
        exc = random_excitation(state, rng, level=level)
        psi = minimal_extension_projection(state, level)
        e = np.outer(psi, np.conj(psi))
        a_up = kron_embed(state.tower, level, exc.op.matrix, level + 1)
        svals = np.linalg.svd(nk.dagger(a_up) @ e @ a_up, compute_uv=False)
        expected = state.expect(LocalOperator(level, exc.op.matrix @ nk.dagger(exc.op.matrix)))
        assert svals[1] <= 1e-9
        assert svals[0] == pytest.approx(expected.real, abs=1e-9)


def test_lift_soundness_sweep(state, rng):
    worst = 0.0
    for _ in range(100):
        level = int(rng.integers(1, 3))
        a = random_excitation(state, rng, level=level)
        t = np.exp(2j * np.pi * rng.random())
        b = make_excitation(state, LocalOperator(level, t * a.op.matrix))
        worst = max(worst, abs(lift_phase(a, b) - t))
    assert worst <= 1e-9
