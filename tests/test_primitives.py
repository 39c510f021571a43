import numpy as np
import pytest

from funnelstates import (
    ContractError,
    LocalOperator,
    PartialIsometry,
    PrimitiveObservable,
    TuningFailureError,
    apply_observable,
    build_tower,
    clock_and_shift,
    commensurable,
    dilate_to_unitaries,
    identity_excitation,
    increasing_projection_schedule,
    make_excitation,
    minimal_extension_projection,
    norm_distance,
    recover_observable,
    relative_commutant_basis,
    sample_generic_state,
    transition_probability,
    tune_detector,
    tuned_isometries,
    ut_probability,
    ut_unitary,
    vacuum_detector,
)
from funnelstates import numkernel as nk
from funnelstates.excitations import random_excitation

from conftest import random_hermitian
from funnelstates.primitives import (
    balanced_unitary,
    hermitian_parts,
    partial_isometry_sup_witness,
)


def _random_partial_isometry(rng, dim, rank):
    u = nk.haar_unitary(rng, dim)
    w = nk.haar_unitary(rng, dim)
    return PartialIsometry(u[:, :rank] @ nk.dagger(w[:, :rank]))


# -- operations -----------------------------------------------------------


def test_identity_operation_fixes_states(state, rng):
    a = random_excitation(state, rng, level=1)
    obs = PrimitiveObservable(np.eye(2, dtype=complex))
    out = apply_observable(obs, a)
    assert norm_distance(a, out, scope="top") <= 1e-12
    assert transition_probability(a, out) == pytest.approx(1.0, abs=1e-12)


def test_survival_probability_is_expectation_squared(state, rng):
    for _ in range(20):
        a = random_excitation(state, rng, level=2)
        obs = PrimitiveObservable(nk.haar_unitary(rng, 4))
        out = apply_observable(obs, a)
        expectation = a.evaluate(LocalOperator(2, obs.unitary))
        assert transition_probability(a, out) == pytest.approx(
            abs(expectation) ** 2, abs=1e-12)


def test_silent_unitary_gives_orthogonal_final_state(state, rng):
    a = random_excitation(state, rng, level=3)
    u = balanced_unitary(a.rho)  # tr(rho_A U) = 0 exactly
    obs = PrimitiveObservable(u)
    out = apply_observable(obs, a)
    assert transition_probability(a, out) <= 1e-12


def test_nonunitary_rejected():
    with pytest.raises(ContractError):
        PrimitiveObservable(np.diag([1.0, 0.5]))


def test_unitary_hermitian_parts(rng):
    u = nk.haar_unitary(rng, 6)
    h1, h2 = hermitian_parts(u)
    assert nk.frob(h1 + 1j * h2 - u) <= 1e-12
    assert nk.frob(h1 - nk.dagger(h1)) <= 1e-12
    assert nk.frob(h2 - nk.dagger(h2)) <= 1e-12
    assert nk.frob(h1 @ h2 - h2 @ h1) <= 1e-12


# -- two-projection unitaries ----------------------------------------------


def test_ut_trivial_phase(state, rng):
    e = nk.random_projection(rng, 16, 5)
    a = random_excitation(state, rng, level=1)
    assert ut_probability(e, 1.0, a) == pytest.approx(1.0, abs=1e-12)


def test_ut_full_projection(state, rng):
    a = random_excitation(state, rng, level=1)
    for t in (1.0, 1j, -1.0):
        assert ut_probability(np.eye(16, dtype=complex), t, a) == pytest.approx(
            1.0, abs=1e-12)


def test_ut_minus_one_closed_form(state, rng):
    e = nk.random_projection(rng, 16, 7)
    a = random_excitation(state, rng, level=2)
    p = np.real(a.evaluate(LocalOperator(3, e)))
    closed = ut_probability(e, -1.0, a)
    assert closed == pytest.approx((2 * p - 1) ** 2, abs=1e-12)
    operational = transition_probability(a, apply_observable(ut_unitary(e, -1.0), a))
    assert operational == pytest.approx(closed, abs=1e-12)


def test_ut_rejects_non_projection(state, rng):
    a = random_excitation(state, rng, level=1)
    with pytest.raises(ContractError):
        ut_probability(random_hermitian(rng, 16), 1j, a)


@pytest.mark.parametrize("t", [2.0, 0.5j, float("nan")])
def test_ut_probability_rejects_a_t_that_is_not_a_phase(state, rng, t):
    # the closed form returned a "probability" above 1 for t = 2 and NaN for
    # t = NaN; both functions reject them, the NaN by a comparison it fails
    e = nk.random_projection(rng, 4, 2)
    a = random_excitation(state, rng, level=2)
    with pytest.raises(ContractError, match="t must be a phase"):
        ut_probability(e, t, a)
    with pytest.raises(ContractError, match="t must be a phase"):
        ut_unitary(e, t)


# -- dilation ----------------------------------------------------------------


def test_dilation_of_unitary_is_identity_schedule(rng):
    u = nk.haar_unitary(rng, 4)
    v = PartialIsometry(u)
    (final,) = dilate_to_unitaries(v, [np.eye(4, dtype=complex)])
    assert nk.frob(final.unitary - u) <= 1e-12


def test_dilation_rank_one_on_c4():
    e1 = np.zeros((4, 1), dtype=complex)
    e1[0] = 1.0
    f1 = np.zeros((4, 1), dtype=complex)
    f1[2] = 1.0
    v = PartialIsometry(f1 @ nk.dagger(e1))  # maps e1 -> f1
    zero = np.zeros((4, 4), dtype=complex)
    final = dilate_to_unitaries(v, [zero, v.initial])[-1].unitary
    assert nk.frob((final - v.matrix) @ v.initial) <= 1e-12
    np.testing.assert_allclose(final @ e1, f1, atol=1e-12)


def test_dilation_zero_on_each_schedule_step(rng):
    v = _random_partial_isometry(rng, 16, 6)
    schedule = increasing_projection_schedule(v.initial, steps=4)
    unitaries = dilate_to_unitaries(v, schedule)
    assert len(unitaries) == len(schedule)
    for obs, e_m in zip(unitaries, schedule):
        u = obs.unitary
        assert nk.frob((u - v.matrix) @ e_m) <= 1e-12
        assert nk.frob(nk.dagger(u) @ u - np.eye(16)) <= 1e-12
    assert nk.frob((unitaries[-1].unitary - v.matrix) @ v.initial) <= 1e-12


def test_dilation_rejects_bad_schedule(rng):
    v = _random_partial_isometry(rng, 8, 3)
    with pytest.raises(ContractError):
        dilate_to_unitaries(v, [np.eye(8, dtype=complex)])  # not dominated by F


# -- tuned isometries ---------------------------------------------------------


def test_tuned_isometries_common_range_and_final(rng):
    v = _random_partial_isometry(rng, 16, 5)
    schedule = increasing_projection_schedule(v.initial, steps=4)
    family = tuned_isometries(v, dilate_to_unitaries(v, schedule))
    assert len(family) == len(schedule)
    for iso in family:
        assert nk.frob(iso.range_projection - v.range_projection) <= 1e-9
    # the final member is E itself, so its weak and strong residuals vanish
    final = family[-1].matrix
    assert nk.frob(final - v.range_projection) <= 1e-12
    assert nk.frob(nk.dagger(final) - v.range_projection) <= 1e-12


def test_tuned_isometries_unitary_case(rng):
    u = nk.haar_unitary(rng, 4)
    v = PartialIsometry(u)
    (iso,) = tuned_isometries(v, dilate_to_unitaries(v, [np.eye(4, dtype=complex)]))
    m = iso.matrix
    assert nk.frob(nk.dagger(m) @ m - np.eye(4)) <= 1e-12


def test_unitary_detector_values_are_bounded_by_one(state, rng):
    a = random_excitation(state, rng, level=1)
    assert a.evaluate(np.eye(16, dtype=complex)) == pytest.approx(1.0, abs=1e-10)
    for _ in range(5):
        assert abs(a.evaluate(LocalOperator(3, nk.haar_unitary(rng, 16)))) <= 1.0 + 1e-10


def test_tuned_family_final_value_matches_projection_mass(state, rng):
    a = random_excitation(state, rng, level=3)
    v = _random_partial_isometry(rng, 16, 4)
    schedule = increasing_projection_schedule(v.initial, steps=4)
    final = tuned_isometries(v, dilate_to_unitaries(v, schedule))[-1]
    mass = float(np.real(a.evaluate(LocalOperator(3, v.range_projection))))
    assert abs(abs(a.evaluate(LocalOperator(3, final.matrix))) - mass) <= 1e-9


def test_sup_witness_exceeds_projection_mass(state, rng):
    a = random_excitation(state, rng, level=1)
    e = nk.random_projection(rng, 16, 4)
    iso = partial_isometry_sup_witness(e, a)
    assert nk.frob(iso.range_projection - e) <= 1e-10
    # |tr(rho_A V)| exceeds omega_A(E)
    value = abs(np.trace(a.rho @ iso.matrix))
    assert value > np.real(a.evaluate(LocalOperator(3, e))) + 1e-3
    with pytest.raises(ContractError, match="top-level"):
        partial_isometry_sup_witness(np.eye(4), a)


# -- tuned detectors -----------------------------------------------------------


def _concentrated_states(state, rng, e_proj, count, leak):
    d = e_proj.shape[0]
    comp = np.eye(d, dtype=complex) - e_proj
    out = []
    for _ in range(count):
        op = e_proj @ nk.random_complex_matrix(rng, d) + leak * comp @ nk.random_complex_matrix(rng, d)
        out.append(make_excitation(state, LocalOperator(3, op)))
    return out


def _mass_leak_gap(obs, e, exc):
    """omega_A(E), omega_{UA}(1 - E) and |omega_A . omega_{UA} - omega_A(E)^2|."""
    final = apply_observable(obs, exc)
    mass = float(np.real(exc.evaluate(LocalOperator(3, e))))
    leak = float(np.real(final.evaluate(LocalOperator(3, np.eye(16) - e))))
    return mass, leak, abs(transition_probability(exc, final) - mass**2)


def test_tune_detector_identity_projection(state, rng):
    states = [random_excitation(state, rng, level=1)]
    e = np.eye(16, dtype=complex)
    obs = tune_detector(e, 1e-6, states)
    np.testing.assert_allclose(obs.unitary, np.eye(16), atol=1e-12)
    assert _mass_leak_gap(obs, e, states[0])[1] <= 1e-6


def test_tune_detector_bounds_hold(state, rng):
    e = nk.random_projection(rng, 16, 4)
    states = _concentrated_states(state, rng, e, 5, leak=0.01)
    eps = 1e-3
    obs = tune_detector(e, eps, states)
    for exc in states:
        _, leak, gap = _mass_leak_gap(obs, e, exc)
        assert leak < eps
        assert gap < 4 * eps


def test_tune_detector_rows_meet_the_construction_identities(state, rng):
    # (1-E)U = B with B*B = 1-E, so the leak is the state's own 1 - mass, and
    # |omega_A(B)| <= 1 - mass bounds the probability gap
    e = nk.random_projection(rng, 16, 4)
    eps = 1e-3
    states = _concentrated_states(state, rng, e, 10, leak=0.01)
    obs = tune_detector(e, eps, states)
    for exc in states:
        mass, leak, gap = _mass_leak_gap(obs, e, exc)
        assert abs(leak - (1.0 - mass)) <= 1e-12
        assert gap <= 2 * eps * mass + eps**2


def test_tune_detector_rank_one_complement_takes_phase_minus_one(state, rng):
    basis = nk.haar_unitary(rng, 16)
    e = basis[:, :15] @ nk.dagger(basis[:, :15])
    states = _concentrated_states(state, rng, e, 3, leak=0.001)
    obs = tune_detector(e, 1e-3, states)
    comp = np.eye(16) - e
    np.testing.assert_allclose(obs.unitary @ comp, -comp, atol=1e-12)
    assert max(_mass_leak_gap(obs, e, exc)[1] for exc in states) < 1e-3


def test_tune_detector_deterministic(state, rng):
    e = nk.random_projection(rng, 16, 4)
    states = _concentrated_states(state, rng, e, 3, leak=0.01)
    d1 = tune_detector(e, 1e-3, states)
    d2 = tune_detector(e, 1e-3, states)
    np.testing.assert_array_equal(d1.unitary, d2.unitary)


def test_tune_detector_floor_failure(state, rng):
    e = nk.random_projection(rng, 16, 4)
    states = _concentrated_states(state, rng, e, 3, leak=0.01)
    with pytest.raises(TuningFailureError) as err:
        tune_detector(e, 1e-15, states)
    assert err.value.best_epsilon > 1e-15


@pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), 0.0, -1e-3])
def test_tune_detector_needs_a_finite_positive_epsilon(state, rng, epsilon):
    # NaN slipped past both `epsilon <= 0` and `leak >= epsilon`, and inf
    # admitted every leak: neither bounds anything
    e = nk.random_projection(rng, 16, 4)
    states = _concentrated_states(state, rng, e, 3, leak=0.01)
    with pytest.raises(ContractError, match="finite positive"):
        tune_detector(e, epsilon, states)


def test_tune_detector_needs_a_top_level_projection(state, rng):
    # a raw D_2 matrix would act at level 2 on the states, but the leak
    # density 1 - E is built at the top: numpy's matmul raised a ValueError
    a = random_excitation(state, rng, level=1)
    with pytest.raises(ContractError, match="top-level"):
        tune_detector(np.eye(4), 0.9, [a])


def test_tune_detector_needs_one_reference_state(tower, state, rng):
    # the mean leak density of two states' excitations mixed their densities
    other = sample_generic_state(tower, seed=43)
    e = nk.random_projection(rng, 16, 4)
    a, b = _concentrated_states(state, rng, e, 1, 0.01) + _concentrated_states(other, rng, e, 1, 0.01)
    with pytest.raises(ContractError, match="different reference states"):
        tune_detector(e, 1e-3, [a, b])


def test_tune_detector_unconcentrated_failure(state, rng):
    e = nk.random_projection(rng, 16, 4)
    states = [random_excitation(state, rng, level=1)]
    with pytest.raises(TuningFailureError):
        tune_detector(e, 1e-3, states)


# -- observable recovery --------------------------------------------------------


def test_recover_single_projection(state, rng):
    e = nk.random_projection(rng, 16, 6)
    a = random_excitation(state, rng, level=2)
    estimate = recover_observable([e], [1.0], a)
    direct = float(np.real(np.trace(a.rho @ e)))
    assert estimate == pytest.approx(direct, abs=1e-9)


def test_recover_two_outcome_observable(state, rng):
    basis = nk.haar_unitary(rng, 16)
    e1 = basis[:, :9] @ nk.dagger(basis[:, :9])
    e2 = basis[:, 9:] @ nk.dagger(basis[:, 9:])
    a = random_excitation(state, rng, level=1)
    estimate = recover_observable([e1, e2], [1.0, -1.0], a)
    direct = float(np.real(np.trace(a.rho @ (e1 - e2))))
    assert abs(estimate - direct) <= 2 * np.sqrt(4e-3) + 1e-9


def test_recover_resolution_of_identity(state, rng):
    basis = nk.haar_unitary(rng, 16)
    projections = []
    for lo, hi in ((0, 5), (5, 11), (11, 16)):
        b = basis[:, lo:hi]
        projections.append(b @ nk.dagger(b))
    a = random_excitation(state, rng, level=2)
    estimate = recover_observable(projections, [1.0, 1.0, 1.0], a)
    assert estimate == pytest.approx(1.0, abs=1e-9)


def test_recover_three_blocks_is_exact(state, rng):
    # B_m is balanced against the state's own leak density, so tr(rho_A B_m) = 0
    basis = np.eye(16, dtype=complex)
    projections = [basis[:, lo:hi] @ nk.dagger(basis[:, lo:hi])
                   for lo, hi in ((0, 6), (6, 11), (11, 16))]
    weights = (1.0, -0.5, 2.0)
    for _ in range(20):
        a = random_excitation(state, rng, level=3)
        direct = sum(o * float(np.real(a.evaluate(LocalOperator(3, p))))
                     for o, p in zip(weights, projections))
        assert abs(recover_observable(projections, weights, a) - direct) <= 1e-12


def test_recover_rejects_lower_level_projections(state, rng):
    a = random_excitation(state, rng, level=1)
    with pytest.raises(ContractError, match="top-level"):
        recover_observable([np.eye(2, dtype=complex)], [1.0], a)


def test_recover_rejects_noncommuting(state, rng):
    e1 = nk.random_projection(rng, 16, 4)
    e2 = nk.random_projection(rng, 16, 4)
    a = random_excitation(state, rng, level=1)
    with pytest.raises(ContractError):
        recover_observable([e1, e2], [1.0, -1.0], a)


# -- vacuum detector ---------------------------------------------------------


def test_vacuum_detector_silent(state):
    det = vacuum_detector(state)
    assert abs(np.trace(state.lam @ det.unitary)) <= 1e-10
    ident = identity_excitation(state)
    assert transition_probability(ident, apply_observable(det, ident)) <= 1e-12


def test_vacuum_detector_flags_excitations(state, rng):
    det = vacuum_detector(state)
    ident = identity_excitation(state)
    hits = 0
    for _ in range(10):
        exc = random_excitation(state, rng, level=2)
        if transition_probability(exc, apply_observable(det, exc)) > 1e-9:
            hits += 1
            assert norm_distance(exc, ident, scope="top") > 1e-6
    assert hits > 0


def test_vacuum_detector_smallest_tower():
    state2 = sample_generic_state(build_tower((2,)), seed=5)
    det = vacuum_detector(state2)
    assert abs(np.trace(state2.lam @ det.unitary)) <= 1e-12


def test_vacuum_detector_silent_on_a_pure_reference(pure_state, rng):
    # the balanced unitary has a zero diagonal in lam's eigenbasis, so
    # tr(lam U) = 0 at any rank: no full-rank guard is needed
    det = vacuum_detector(pure_state)
    assert abs(np.trace(pure_state.lam @ det.unitary)) <= 1e-12
    ident = identity_excitation(pure_state)
    assert transition_probability(ident, apply_observable(det, ident)) <= 1e-12
    excs = [random_excitation(pure_state, rng, level=2) for _ in range(10)]
    assert max(transition_probability(e, apply_observable(det, e)) for e in excs) > 1e-9


def test_balanced_unitary_skewed_spectrum():
    # spectra violating the polygon inequality still balance exactly
    m = np.diag([0.9, 0.05, 0.03, 0.02]).astype(complex)
    u = balanced_unitary(m)
    assert abs(np.trace(m @ u)) <= 1e-12
    assert nk.frob(nk.dagger(u) @ u - np.eye(4)) <= 1e-12


@pytest.mark.parametrize("m", [np.eye(5), np.array([[0.7, 0.2j], [-0.2j, 0.3]]),
                               np.diag([0.9, 0.05, 0.03, 0.02])],
                         ids=["degenerate", "2x2", "skewed"])
def test_balanced_unitary_is_a_silent_shift(m):
    # the cyclic shift in an eigenbasis has a zero diagonal there, whatever the spectrum
    u = balanced_unitary(m)
    assert nk.frob(nk.dagger(u) @ u - np.eye(len(m))) <= 1e-14 * len(m)
    assert abs(np.trace(m @ u)) <= 1e-14 * nk.frob(m)


# -- commensurability ----------------------------------------------------------


def test_clock_shift_commensurable_not_commuting():
    clock, shift = clock_and_shift(3)
    res = commensurable(shift, clock)
    assert res.commensurable
    assert not res.commutes
    assert res.phase == pytest.approx(np.exp(2j * np.pi / 3), abs=1e-12)


def test_commuting_diagonal_unitaries(rng):
    u1 = np.diag(np.exp(2j * np.pi * rng.random(4)))
    u2 = np.diag(np.exp(2j * np.pi * rng.random(4)))
    res = commensurable(PrimitiveObservable(u1), PrimitiveObservable(u2))
    assert res.commensurable and res.commutes
    assert res.phase == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("raw", [np.zeros((2, 2)), 2 * np.eye(2), np.eye(2, 3)])
def test_commensurable_rejects_a_raw_matrix_that_is_not_unitary(raw):
    # the zero matrix divided by ||U1 U2|| = 0 and 2 * 1 passed as commuting:
    # Ad U is defined only for a unitary; a 2 x 3 matrix failed numpy's
    # broadcasting inside the unitarity check instead of the check itself
    with pytest.raises(ContractError, match="not unitary"):
        PrimitiveObservable(raw)
    with pytest.raises(ContractError, match="not unitary"):
        commensurable(raw, np.eye(2))
    with pytest.raises(ContractError, match="not unitary"):
        commensurable(PrimitiveObservable(np.eye(2)), raw)


def test_an_observable_acts_at_the_level_of_its_size(state, rng):
    # a unitary of size D_n acts as U (x) 1 at level n; a size that is no level raises
    exc = random_excitation(state, rng, level=1)
    u = nk.haar_unitary(rng, 4)
    out = apply_observable(PrimitiveObservable(u), exc)
    np.testing.assert_allclose(out.mat, state.act(LocalOperator(2, u), exc.mat), rtol=0, atol=1e-15)
    with pytest.raises(ContractError):
        apply_observable(PrimitiveObservable(np.eye(8)), exc)


@pytest.mark.parametrize("level", [1.5, 2.0, "2", True, 0])
def test_bad_level_is_a_contract_error(state, rng, level):
    # one gate, funnel.require_level, refuses a level that is not an integer
    # >= 1 wherever one is taken: LocalOperator(1.5) raised a TypeError when
    # it acted, and LocalOperator(True) acted as level 1
    with pytest.raises(ContractError):
        LocalOperator(level, np.eye(2))
    with pytest.raises(ContractError):
        random_excitation(state, rng, level=level)
    with pytest.raises(ContractError):
        minimal_extension_projection(state, level)
    with pytest.raises(ContractError):
        relative_commutant_basis(state.tower, level)


@pytest.mark.parametrize("steps", [2.5, 0, -3, True, "2"])
def test_schedule_rejects_a_step_count_that_is_not_a_positive_integer(rng, steps):
    # 2.5 raised a TypeError from range; 0 and -3 became one step
    v = _random_partial_isometry(rng, 16, 6)
    with pytest.raises(ContractError):
        increasing_projection_schedule(v.initial, steps=steps)


def test_schedule_clamps_its_steps_to_the_rank(rng):
    v = _random_partial_isometry(rng, 16, 6)
    schedule = increasing_projection_schedule(v.initial, steps=10)
    assert [round(float(np.real(np.trace(e)))) for e in schedule] == [1, 2, 3, 4, 5, 6]


def test_generic_pair_not_commensurable(rng):
    res = commensurable(nk.haar_unitary(rng, 5), nk.haar_unitary(rng, 5))
    assert not res.commensurable
    assert res.residual > 1e-3


def test_ut_pairs_follow_the_projection_commutator(rng):
    def residuals(e1, e2):
        return [commensurable(ut_unitary(e1, t), ut_unitary(e2, t)).residual
                for t in (1.0, 1j, -1.0, np.exp(0.3j))]

    e1 = nk.random_projection(rng, 4, 2)
    e2 = nk.random_projection(rng, 4, 2)
    assert nk.frob(e1 @ e2 - e2 @ e1) > 1e-3
    assert any(r > 1e-3 for r in residuals(e1, e2))
    assert all(r <= 1e-10 for r in residuals(e1, e1.copy()))
