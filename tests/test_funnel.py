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
from funnelstates.funnel import extension_projection_residual, matrix_units

from conftest import extension_residual_sweep, kron_embed


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


@pytest.mark.parametrize("dims", [(2, 2.9), (2, 4.0), (True, 2), ("2", "2"), 4, "224"])
def test_build_tower_rejects_non_integer_factors(dims):
    with pytest.raises(ConfigurationError):
        build_tower(dims)


def test_build_tower_accepts_numpy_integers():
    assert build_tower(np.array([2, 2])).factor_dims == (2, 2)


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


def test_pure_state_has_rank_one_and_omega_on_its_support(pure_state):
    # the ~1e-16 eigenvalues of a rank-one density are rounding noise; a square
    # root taken over them put omega about 1e-8 off its own support
    assert pure_state.rank == 1
    d = pure_state.dim
    off = pure_state.omega_vector.reshape(d, d) @ pure_state.basis[:, pure_state.rank:]
    assert np.linalg.norm(off) <= 1e-15


def test_separating_square_root_is_the_full_spectral_formula(state):
    # every eigenvalue of a separating state clears the rank floor, so the
    # support square root is the same computation over all eigenpairs, bit for bit
    assert state.separating and state.rank == state.dim
    full = (state.basis * np.sqrt(np.clip(state.spectrum, 0.0, None))) @ nk.dagger(state.basis)
    np.testing.assert_array_equal(state.sqrt_lam, full)


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


def test_embedding_is_unital_star_homomorphism(state, rng):
    # A -> A (x) 1 as it acts: multiplicative, adjoint-preserving and unital
    a, b = (nk.random_complex_matrix(rng, 4) for _ in range(2))
    x, y = (nk.random_complex_matrix(rng, 16) for _ in range(2))
    act = lambda m, v: state.act(LocalOperator(2, m), v)
    assert nk.frob(act(a, act(b, x)) - act(a @ b, x)) <= 1e-12
    assert abs(np.vdot(x, act(a, y)) - np.vdot(act(nk.dagger(a), x), y)) <= 1e-12
    assert np.array_equal(act(np.eye(4), x), x)


def test_embedding_rejects_non_finite_and_misshapen_matrices(tower, state):
    bad = np.eye(4, dtype=complex)
    bad[1, 2] = np.nan
    with pytest.raises(ContractError):
        LocalOperator(level=2, matrix=bad)
    with pytest.raises(ContractError):
        state.act(bad, state.sqrt_lam)
    with pytest.raises(ContractError):
        LocalOperator(level=2, matrix=np.ones(4))
    # a validated operator of the wrong size still fails when it acts: the
    # state's path skips as_cmatrix but keeps the shape check
    with pytest.raises(ContractError):
        state.act(LocalOperator(level=2, matrix=np.eye(3)), state.sqrt_lam)


@pytest.mark.parametrize("dims", [(2, 2, 4), (2, 2, 8)])
def test_act_equals_the_dense_embedding(dims, rng):
    # (A (x) 1) x through a reshape, against kron(A, 1) applied to x's D x D
    # matrix (for a block, to each column's), at every level: exactly equal
    state = sample_generic_state(build_tower(dims), seed=3)
    tower, d = state.tower, state.dim
    for level in range(1, tower.levels + 1):
        a = nk.random_complex_matrix(rng, tower.dim_at(level))
        emb = kron_embed(tower, level, a)
        op = LocalOperator(level, a)
        x = nk.random_complex_matrix(rng, d)
        block = nk.random_complex_matrix(rng, d * d, 3)
        assert np.array_equal(state.act(op, x), emb @ x)
        dense = np.column_stack([(emb @ col.reshape(d, d)).ravel() for col in block.T])
        assert np.array_equal(state.act(op, block), dense)
        # on a matrix of an intermediate level m >= n, A acts as kron(A, 1) at level m
        for m in range(level, tower.levels):
            x_m = nk.random_complex_matrix(rng, tower.dim_at(m))
            assert np.array_equal(state.act(op, x_m), kron_embed(tower, level, a, m) @ x_m)
    # a raw top-level matrix acts at the top
    assert np.array_equal(state.act(a, x), emb @ x)
    # the reshape reads only the operator's size: a mismatch with its level raises
    for bad in (LocalOperator(2, np.eye(2)), LocalOperator(1, np.eye(4))):
        with pytest.raises(ContractError):
            state.act(bad, x)


def test_act_needs_a_leading_axis_that_the_level_divides(state):
    # a 4 x 4 matrix read at D_3 = 16 was one column of 16 entries, and a 2 x 2
    # one read at D_2 = 4 one column of 4: both returned without an error
    for level, x in ((3, np.eye(4)), (2, np.eye(2))):
        with pytest.raises(ContractError):
            state.act(LocalOperator(level, 2 * np.eye(state.tower.dim_at(level))), x)


@pytest.mark.parametrize("dims", [(2, 2, 4), (2, 3, 6)])
def test_level_of_round_trips_every_level(dims):
    # the D_n strictly increase (every factor is >= 2), so a size names one level
    tower = build_tower(dims)
    levels = list(range(1, tower.levels + 1))
    assert [tower.level_of(tower.dim_at(n)) for n in levels] == levels


def test_a_size_that_is_no_level_is_a_contract_error(tower, state):
    for dim in (3, 8):
        with pytest.raises(ContractError):
            tower.level_of(dim)
        with pytest.raises(ContractError):
            state.act(np.eye(dim), state.sqrt_lam)


def test_a_raw_matrix_acts_at_the_level_of_its_size(state, rng):
    # bit for bit the operator at that level, whether it acts or is excited
    x = nk.random_complex_matrix(rng, state.dim)
    for level in range(1, state.tower.levels + 1):
        a = nk.random_complex_matrix(rng, state.tower.dim_at(level))
        assert np.array_equal(state.act(a, x), state.act(LocalOperator(level, a), x))
        raw = excitations.make_excitation(state, a)
        op = excitations.make_excitation(state, LocalOperator(level, a))
        assert raw.level == op.level == level
        assert np.array_equal(raw.mat, op.mat)


def test_dim_at_is_int_and_range_checked(tower):
    dims = [tower.dim_at(n) for n in range(1, tower.levels + 1)]
    assert dims == [2, 4, 16]
    assert all(type(d) is int for d in dims)
    # a level outside the tower is a caller's error; admission never passes one
    for level in (0, tower.levels + 1):
        with pytest.raises(ContractError):
            tower.dim_at(level)


def test_expectation_three_ways_agree(state, rng):
    a = nk.random_complex_matrix(rng, 4)
    op = LocalOperator(level=2, matrix=a)
    a_top = kron_embed(state.tower, 2, a)
    direct = np.trace(state.lam @ a_top)
    doubled = np.vdot(state.omega_vector, np.kron(a_top, np.eye(16)) @ state.omega_vector)
    reduced = np.trace(state.reduced(2) @ a)
    assert abs(direct - doubled) <= 1e-12
    assert abs(direct - reduced) <= 1e-12
    assert abs(state.expect(op) - direct) <= 1e-12


def test_genericity_passes_for_random_state(state, rng):
    assert check_genericity(state, trials=50, rng=rng) == {}


def test_genericity_pure_fails_separating(pure_state):
    failures = check_genericity(pure_state, trials=4, rng=np.random.default_rng(0))
    assert failures["separating"] == {"min_eig": float(pure_state.spectrum[-1]),
                                      "eps_sep": pure_state.eps_sep}


def test_genericity_tracial_product_fails_lift(tower):
    # sigma tracial on level 1: conjugation by any level-1 unitary fixes the
    # reference density, so distinct unitary rays become indistinguishable.
    rng = np.random.default_rng(0)
    tau = nk.random_complex_matrix(rng, 8)
    tau = tau @ nk.dagger(tau)
    tau /= np.trace(tau).real
    lam = np.kron(np.eye(2) / 2, tau)
    state = GenericState(tower=tower, lam=lam, seed=0)
    failures = check_genericity(state, trials=20, rng=np.random.default_rng(0))
    assert list(failures) == ["lift_injectivity:1"]
    witness = failures["lift_injectivity:1"]
    assert witness["level"] == 1 and witness["kind"] == "unitary"
    assert witness["distance"] <= funnel.INJECTIVITY_GAP


def test_genericity_reports_its_checks_on_make_excitation(state, monkeypatch):
    built = []
    make = excitations.make_excitation
    monkeypatch.setattr(excitations, "make_excitation",
                        lambda st, op: built.append(op.level) or make(st, op))
    assert check_genericity(state, trials=4, rng=np.random.default_rng(0)) == {}
    assert sorted(set(built)) == list(range(1, state.tower.levels + 1))


def _floored_density(d: int, floor: float) -> np.ndarray:
    """A diagonal density of size d whose least eigenvalue is `floor`."""
    spectrum = np.full(d, floor)
    spectrum[0] = 1.0 - (d - 1) * floor
    return np.diag(spectrum)


def test_separating_is_derived_from_the_spectrum(tower):
    d = tower.top_dim
    eps = funnel.SEPARATION_SCALE / d
    v = nk.random_unit_vector(np.random.default_rng(0), d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rank_one = GenericState(tower=tower, lam=np.outer(v, np.conj(v)), seed=0)
        assert rank_one.separating is False
        with pytest.raises(ContractError):
            rank_one.inv_sqrt_lam
        full = GenericState(tower=tower, lam=np.eye(d) / d, seed=0)
        assert full.separating is True
        assert np.all(np.isfinite(full.inv_sqrt_lam))
    # eps_sep is the state's own SEPARATION_SCALE / D: a floor above it separates, one below does not
    above = GenericState(tower=tower, lam=_floored_density(d, 2 * eps), seed=0)
    assert above.eps_sep == eps and above.separating is True
    assert GenericState(tower=tower, lam=_floored_density(d, eps / 2), seed=0).separating is False
    for derived in ({"eps_sep": 1e-12}, {"separating": True}):
        with pytest.raises(TypeError):
            GenericState(tower=tower, lam=np.eye(d) / d, seed=0, **derived)


@pytest.mark.parametrize("lam", ["small", "trace_two", "negative", "indefinite"])
def test_reference_density_is_a_density_of_its_tower(tower, lam):
    # a (2, 2, 4) density is 16 x 16, of trace 1 and positive: an 8 x 8 one
    # raised numpy's reshape error, trace 2 read back expect(1) = 2, -1/16
    # was taken as a state of rank 0, and an indefinite trace-1 matrix as rank 1
    d = tower.top_dim
    lam = {"small": np.eye(8) / 8, "trace_two": 2 * np.eye(d) / d, "negative": -np.eye(d) / d,
           "indefinite": np.diag([1.5, -0.5] + [0.0] * (d - 2))}[lam]
    with pytest.raises(ContractError):
        GenericState(tower=tower, lam=lam, seed=0)


def test_reference_density_allows_rounding_below_zero(tower):
    # a pure density's kernel eigenvalues are rounding-level, of either sign
    d = tower.top_dim
    v = nk.random_unit_vector(np.random.default_rng(5), d)
    lam = np.outer(v, np.conj(v)) - 1e-14 * np.diag(np.arange(d) == d - 1)
    lam /= np.trace(lam)
    assert GenericState(tower=tower, lam=lam, seed=0).rank == 1


def test_non_separating_message_names_floor_and_threshold(tower):
    # full rank, but the floor sits below eps_sep = 1e-6 / 16: the state is not pure
    d = tower.top_dim
    state = GenericState(tower=tower, lam=_floored_density(d, 3e-8), seed=0)
    assert state.separating is False
    with pytest.raises(ContractError) as err:
        state.inv_sqrt_lam
    message = str(err.value)
    assert "3.000e-08" in message and "6.250e-08" in message
    assert "pure profile" not in message


def test_sampler_reads_the_floor_from_the_state(tower, monkeypatch):
    # the genericity self-test takes Hermitian trace norms by eigvalsh; none
    # of those calls may re-derive the spectrum of the sampled density
    seen = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m, *a, **k: seen.append(np.array(m)) or eigvalsh(m, *a, **k))
    state = sample_generic_state(tower, seed=42)
    assert state.separating
    assert not any(np.array_equal(m, state.lam) for m in seen)


def test_extension_projection_schmidt_weights(state):
    # the squared Schmidt coefficients of the purifying vector are the
    # spectrum of the level-1 reduction
    psi = minimal_extension_projection(state, 1)
    rho1 = state.reduced(1)
    expected = np.sort(np.linalg.eigvalsh(rho1))[::-1]
    schmidt = np.linalg.svd(psi.reshape(2, 2), compute_uv=False)
    np.testing.assert_allclose(schmidt**2, expected, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2])
def test_extension_projection_vector_is_the_schmidt_sum(state, pure_state, n):
    # the reference construction: sum_i sqrt(w_i) e_i (x) f_i, term by term,
    # over the eigenpairs of the level-n reduction above 1e-14 w_max
    for s in (state, pure_state):
        eig = nk.herm_eig(s.reduced(n))
        weights = np.clip(eig.eigenvalues, 0.0, None)
        k_next = s.tower.factor_dims[n]
        psi = np.zeros(s.tower.dim_at(n) * k_next, dtype=complex)
        for i in np.flatnonzero(weights > 1e-14 * weights[0]):
            psi += np.sqrt(weights[i]) * np.kron(eig.eigenvectors[:, i], np.eye(k_next)[i])
        np.testing.assert_array_equal(minimal_extension_projection(s, n), psi)


def test_extension_projection_identity_compression(state):
    psi = minimal_extension_projection(state, 1)
    e = np.outer(psi, np.conj(psi))
    np.testing.assert_allclose(e @ np.eye(4) @ e, e, atol=1e-14)


def test_extension_projection_matrix_unit_sweep(state):
    for n in (1, 2):
        psi = minimal_extension_projection(state, n)
        assert extension_projection_residual(state, psi) <= 1e-10


@pytest.mark.parametrize("profile", ["random_full_rank", "pure", "near_tracial"])
def test_extension_residual_equals_the_matrix_unit_sweep(tower, profile):
    # the closed form max |Psi Psi* - lam_n| ||psi||^2 against the dense loop over
    # the level-n matrix units, at every level below the top
    state = sample_generic_state(tower, seed=42, profile=profile)
    for n in range(1, tower.levels):
        psi = minimal_extension_projection(state, n)
        assert abs(extension_projection_residual(state, psi) - extension_residual_sweep(state, psi)) <= 1e-15


def test_extension_residual_of_a_vector_that_does_not_purify(state):
    # a perturbed psi is no purification: both forms read the same 5e-3 residual
    psi = minimal_extension_projection(state, 2)
    psi = psi + 1e-2 * nk.random_unit_vector(np.random.default_rng(0), len(psi))
    closed = extension_projection_residual(state, psi)
    assert 1e-3 < closed < 1e-2
    assert abs(closed - extension_residual_sweep(state, psi)) <= 1e-15


def test_extension_residual_reads_its_level_from_the_vector_size(state):
    # D_1 would be the level-0 projection, and 3 is no level dimension
    for size in (state.tower.dim_at(1), 3):
        with pytest.raises(ContractError):
            extension_projection_residual(state, np.ones(size, dtype=complex) / np.sqrt(size))


def test_extension_projection_deterministic(tower):
    s1 = sample_generic_state(tower, seed=17)
    s2 = sample_generic_state(tower, seed=17)
    np.testing.assert_array_equal(minimal_extension_projection(s1, 1), minimal_extension_projection(s2, 1))


def test_extension_projection_is_rank_one_in_next_level(state):
    # E_2 = |psi><psi| is a rank-one projection of level 3: psi is a unit D_3 vector
    psi = minimal_extension_projection(state, 2)
    assert psi.shape == (state.tower.dim_at(3),)
    assert np.vdot(psi, psi).real == pytest.approx(1.0, abs=1e-12)


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
        u_emb = kron_embed(tower, 1, unit, 2)
        for b in basis:
            worst = max(worst, nk.frob(u_emb @ b.matrix - b.matrix @ u_emb))
    assert worst <= 1e-12


def test_relative_commutant_span_rank(tower):
    basis = list(relative_commutant_basis(tower, 2))
    vectors = np.column_stack([b.matrix.ravel() for b in basis])
    gram = nk.dagger(vectors) @ vectors
    assert np.linalg.matrix_rank(gram, tol=1e-10) == tower.factor_dims[2] ** 2
