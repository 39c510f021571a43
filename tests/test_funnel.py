import warnings

import numpy as np
import pytest

from funnelstates import (
    CapacityError,
    ConfigurationError,
    ContractError,
    GenericState,
    LocalOperator,
    build_tower,
    check_genericity,
    minimal_extension_projection,
    relative_commutant_basis,
    sample_generic_state,
)
from funnelstates import excitations, funnel
from funnelstates import numkernel as nk
from funnelstates.errors import SizingError
from funnelstates.funnel import (
    embed_matrix,
    extension_projection_residual,
    matrix_units,
)


def test_build_tower_dims():
    tower = build_tower((2, 2, 4))
    assert [tower.dim_at(n) for n in (1, 2, 3)] == [2, 4, 16]
    assert tower.top_dim == 16


def test_build_tower_capacity_boundary():
    tower = build_tower((2, 2))
    assert [tower.dim_at(n) for n in (1, 2)] == [2, 4]


def test_build_tower_capacity_violation_names_level():
    with pytest.raises(CapacityError, match="level 3"):
        build_tower((2, 2, 2))


def test_build_tower_rejects_trivial_factors():
    with pytest.raises(ConfigurationError):
        build_tower((2, 1, 4))


def test_sample_deterministic(tower):
    s1 = sample_generic_state(tower, seed=5)
    s2 = sample_generic_state(tower, seed=5)
    np.testing.assert_array_equal(s1.lam, s2.lam)


def test_sample_pure_profile(tower):
    s = sample_generic_state(tower, seed=3, profile="pure")
    assert not s.separating
    vals = np.linalg.eigvalsh(s.lam)
    assert vals[-1] == pytest.approx(1.0, abs=1e-12)
    assert abs(vals[-2]) <= 1e-12


def test_sample_near_tracial_spectrum(tower):
    delta = funnel.NEAR_TRACIAL_WEIGHT
    s = sample_generic_state(tower, seed=9, profile="near_tracial")
    d = tower.top_dim
    # by construction lam - (1-delta)/d is delta * (a density matrix)
    remainder = s.lam - (1 - delta) / d * np.eye(d)
    vals = np.linalg.eigvalsh(remainder)
    assert vals[0] >= -1e-12
    assert np.trace(remainder).real == pytest.approx(delta, abs=1e-12)


def test_sample_unknown_profile(tower):
    with pytest.raises(ConfigurationError):
        sample_generic_state(tower, seed=1, profile="bogus")


def test_sample_bounded_redraws(tower, monkeypatch):
    from funnelstates import SamplingError

    # an unreachable separation floor (eps_sep = 1) exhausts the redraw budget
    monkeypatch.setattr(funnel, "SEPARATION_SCALE", float(tower.top_dim))
    with pytest.raises(SamplingError, match=f"after {funnel.MAX_REDRAWS} draws"):
        sample_generic_state(tower, seed=1)


def test_embedding_is_unital_star_homomorphism(tower, rng):
    a = nk.random_complex_matrix(rng, 4)
    b = nk.random_complex_matrix(rng, 4)
    emb = lambda m: embed_matrix(tower, 2, m)
    assert nk.frob(emb(a) @ emb(b) - emb(a @ b)) <= 1e-12
    assert nk.frob(nk.dagger(emb(a)) - emb(nk.dagger(a))) <= 1e-12
    assert nk.frob(emb(np.eye(4)) - np.eye(16)) <= 1e-12


@pytest.mark.parametrize("dims", [(2, 2, 4), (2, 3, 6)])
def test_embed_matrix_equals_kron(dims, rng):
    tower = build_tower(dims)
    for level in range(1, tower.levels + 1):
        d = tower.dim_at(level)
        a = nk.random_complex_matrix(rng, d)
        for target in range(level, tower.levels + 1):
            k = tower.dim_at(target) // d
            assert np.array_equal(embed_matrix(tower, level, a, target), np.kron(a, np.eye(k)))
            op = LocalOperator(level=level, matrix=a)
            assert np.array_equal(embed_matrix(tower, op.level, op.matrix, target),
                                  np.kron(a, np.eye(k)))


def test_embedding_rejects_non_finite_and_misshapen_matrices(tower, state):
    bad = np.eye(4, dtype=complex)
    bad[1, 2] = np.nan
    with pytest.raises(ContractError):
        LocalOperator(level=2, matrix=bad)
    with pytest.raises(ContractError):
        embed_matrix(tower, 2, bad)
    with pytest.raises(ContractError):
        LocalOperator(level=2, matrix=np.ones(4))
    with pytest.raises(ContractError):
        embed_matrix(tower, 2, np.eye(3))
    # a validated operator of the wrong size still fails on the state's
    # unchecked path, which skips as_cmatrix
    with pytest.raises(ContractError):
        state.embed(LocalOperator(level=2, matrix=np.eye(3)))


def test_dim_at_is_int_and_range_checked(tower):
    dims = [tower.dim_at(n) for n in range(1, tower.levels + 1)]
    assert dims == [2, 4, 16]
    assert all(type(d) is int for d in dims)
    for level in (0, tower.levels + 1):
        with pytest.raises(ConfigurationError):
            tower.dim_at(level)


def test_embedding_sizing_error_reads_the_limit_at_call_time(tower, monkeypatch):
    monkeypatch.setattr(nk, "MAX_TOTAL_DIM", 8)
    with pytest.raises(SizingError):
        embed_matrix(tower, 1, np.eye(2))
    with pytest.raises(SizingError):
        op = LocalOperator(level=2, matrix=np.eye(4))
        embed_matrix(tower, op.level, op.matrix)
    assert embed_matrix(tower, 1, np.eye(2), target_level=2).shape == (4, 4)


def test_expectation_three_ways_agree(state, rng):
    a = nk.random_complex_matrix(rng, 4)
    op = LocalOperator(level=2, matrix=a)
    a_top = state.embed(op)
    direct = np.trace(state.lam @ a_top)
    doubled = np.vdot(state.omega_vector, np.kron(a_top, np.eye(16)) @ state.omega_vector)
    reduced = np.trace(state.reduced(2) @ a)
    assert abs(direct - doubled) <= 1e-12
    assert abs(direct - reduced) <= 1e-12


def test_genericity_passes_for_random_state(state, rng):
    report = check_genericity(state, trials=50, rng=rng)
    assert report.passed, [c.check_id for c in report.failures]


def test_genericity_pure_fails_separating(pure_state):
    report = check_genericity(pure_state, trials=4, rng=np.random.default_rng(0))
    failed = {c.check_id for c in report.failures}
    assert "separating" in failed


def test_genericity_tracial_product_fails_lift(tower):
    # sigma tracial on level 1: conjugation by any level-1 unitary fixes the
    # reference density, so distinct unitary rays become indistinguishable.
    rng = np.random.default_rng(0)
    tau = nk.random_complex_matrix(rng, 8)
    tau = tau @ nk.dagger(tau)
    tau /= np.trace(tau).real
    lam = np.kron(np.eye(2) / 2, tau)
    state = GenericState(tower=tower, lam=lam, profile="random_full_rank",
                         seed=0, eps_sep=1e-12)
    report = check_genericity(state, trials=20, rng=np.random.default_rng(0))
    failed = {c.check_id for c in report.failures}
    assert "lift_injectivity:1" in failed


def test_genericity_reports_its_checks_on_make_excitation(state, monkeypatch):
    built = []
    make = excitations.make_excitation
    monkeypatch.setattr(excitations, "make_excitation",
                        lambda st, op: built.append(op.level) or make(st, op))
    report = check_genericity(state, trials=4, rng=np.random.default_rng(0))
    levels = state.tower.levels
    assert [c.check_id for c in report.checks] == (
        ["separating"] + [f"extension_projection:{n}" for n in range(1, levels)]
        + [f"lift_injectivity:{n}" for n in range(1, levels + 1)])
    assert report.passed
    assert sorted(set(built)) == list(range(1, levels + 1))


def test_separating_is_derived_from_the_spectrum(tower):
    d = tower.top_dim
    v = nk.random_unit_vector(np.random.default_rng(0), d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rank_one = GenericState(tower=tower, lam=np.outer(v, np.conj(v)),
                                profile="random_full_rank", seed=0, eps_sep=1e-12)
        assert rank_one.separating is False
        with pytest.raises(ContractError):
            rank_one.inv_sqrt_lam
        full = GenericState(tower=tower, lam=np.eye(d) / d, profile="random_full_rank",
                            seed=0, eps_sep=1e-12)
        assert full.separating is True
        assert np.all(np.isfinite(full.inv_sqrt_lam))
    with pytest.raises(TypeError):
        GenericState(tower=tower, lam=np.eye(d) / d, profile="random_full_rank",
                     seed=0, eps_sep=1e-12, separating=True)


def test_non_separating_message_names_floor_and_threshold(tower):
    # full rank, but the floor sits below eps_sep: the state is not pure
    d = tower.top_dim
    spectrum = np.full(d, 1e-4)
    spectrum[0] = 1.0 - (d - 1) * 1e-4
    state = GenericState(tower=tower, lam=np.diag(spectrum), profile="random_full_rank",
                         seed=0, eps_sep=1e-3)
    assert state.separating is False
    with pytest.raises(ContractError) as err:
        state.inv_sqrt_lam
    message = str(err.value)
    assert "1.000e-04" in message and "1.000e-03" in message
    assert "pure profile" not in message


def test_sampler_reads_the_floor_from_the_state(tower, monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: calls.append(1) or eigvalsh(*a, **k))
    state = sample_generic_state(tower, seed=42)
    assert state.separating
    assert calls == []


def test_extension_projection_schmidt_weights(state):
    proj = minimal_extension_projection(state, 1)
    rho1 = state.reduced(1)
    expected = np.sort(np.linalg.eigvalsh(rho1))[::-1]
    np.testing.assert_allclose(proj.schmidt_weights, expected, atol=1e-12)


def test_extension_projection_identity_compression(state):
    proj = minimal_extension_projection(state, 1)
    e = proj.projector
    np.testing.assert_allclose(e @ np.eye(4) @ e, e, atol=1e-14)


def test_extension_projection_matrix_unit_sweep(state):
    for n in (1, 2):
        proj = minimal_extension_projection(state, n)
        assert extension_projection_residual(state, proj) <= 1e-10


def test_extension_projection_deterministic(tower):
    s1 = sample_generic_state(tower, seed=17)
    s2 = sample_generic_state(tower, seed=17)
    p1 = minimal_extension_projection(s1, 1)
    p2 = minimal_extension_projection(s2, 1)
    np.testing.assert_array_equal(p1.vector, p2.vector)


def test_extension_projection_is_rank_one_in_next_level(state):
    proj = minimal_extension_projection(state, 2)
    assert np.linalg.matrix_rank(proj.projector, tol=1e-10) == 1
    assert np.trace(proj.projector).real == pytest.approx(1.0, abs=1e-12)


def test_relative_commutant_basis_counts(tower):
    basis = relative_commutant_basis(tower, 1)
    assert iter(basis) is basis  # yielded one at a time
    basis = list(basis)
    assert len(basis) == 4  # k_2^2
    assert all(b.matrix.shape == (4, 4) for b in basis)
    # the level is checked at the call, not at the first member
    for n in (0, tower.levels):
        with pytest.raises(ContractError):
            relative_commutant_basis(tower, n)


def test_relative_commutant_commutes_with_lower_level(tower):
    basis = list(relative_commutant_basis(tower, 1))
    worst = 0.0
    for unit in matrix_units(2):
        u_emb = embed_matrix(tower, 1, unit, 2)
        for b in basis:
            worst = max(worst, nk.frob(u_emb @ b.matrix - b.matrix @ u_emb))
    assert worst <= 1e-12


def test_relative_commutant_span_rank(tower):
    basis = list(relative_commutant_basis(tower, 2))
    vectors = np.column_stack([b.matrix.ravel() for b in basis])
    gram = nk.dagger(vectors) @ vectors
    assert np.linalg.matrix_rank(gram, tol=1e-10) == tower.factor_dims[2] ** 2
