import numpy as np
import pytest

from funnelstates import (
    CompletenessUnavailableError,
    ContractError,
    LocalOperator,
    OrthogonalFamily,
    build_complete_family,
    build_tower,
    completeness_sum,
    fuchs_bound_check,
    local_continuity_probe,
    make_excitation,
    norm_distance,
    overlap,
    sample_generic_state,
    transition_probability,
    uhlmann_fidelity,
)
from funnelstates import numkernel as nk
from funnelstates.excitations import random_excitation


def test_transition_self_is_one(state, rng):
    a = random_excitation(state, rng, level=1)
    assert transition_probability(a, a) == pytest.approx(1.0, abs=1e-12)


def test_transition_orthogonal_pair_is_zero(state, rng):
    a = random_excitation(state, rng, level=3)
    g = nk.random_complex_matrix(rng, 16)
    v = (g @ state.sqrt_lam).ravel()
    v -= np.vdot(a.vector, v) * a.vector
    b = make_excitation(state, LocalOperator(3, v.reshape(16, 16) @ state.inv_sqrt_lam))
    assert transition_probability(a, b) <= 1e-12


def test_transition_two_evaluation_paths(state, rng):
    for _ in range(20):
        a = random_excitation(state, rng, level=2)
        b = random_excitation(state, rng, level=2)
        doubled = abs(np.vdot(a.vector, b.vector)) ** 2
        reduced = abs(np.trace(state.lam @ nk.dagger(a.top) @ b.top)) ** 2
        assert abs(doubled - reduced) <= 1e-12
        assert abs(transition_probability(a, b) - doubled) <= 1e-12


def test_transition_symmetric(state, rng):
    a, b = (random_excitation(state, rng, level=1) for _ in range(2))
    assert transition_probability(a, b) == pytest.approx(
        transition_probability(b, a), abs=1e-12)


# -- complete families ---------------------------------------------------


def test_family_size_small_tower(small_state):
    family = build_complete_family(small_state)
    assert len(family) == 16


def test_family_orthonormal(small_state):
    family = build_complete_family(small_state)
    assert family.max_off_diagonal() <= 1e-9
    np.testing.assert_allclose(np.diag(family.overlaps), np.ones(16), atol=1e-10)


def test_family_completeness_sums(small_state):
    family = build_complete_family(small_state)
    rng = np.random.default_rng(5)
    for _ in range(20):
        probe = random_excitation(small_state, rng, level=2)
        assert completeness_sum(family, probe) == pytest.approx(1.0, abs=1e-8)


def test_family_member_probe_concentrates(small_state):
    family = build_complete_family(small_state)
    probe = family.members[5]
    assert transition_probability(probe, family.members[5]) == pytest.approx(1.0, abs=1e-10)
    rest = sum(transition_probability(probe, m)
               for i, m in enumerate(family.members) if i != 5)
    assert rest <= 1e-12


def test_family_needs_full_rank(pure_state):
    with pytest.raises(CompletenessUnavailableError):
        build_complete_family(pure_state)


def test_family_generator_ordering_invariance(small_state):
    from funnelstates.funnel import matrix_units

    family = build_complete_family(small_state)
    reversed_gens = [LocalOperator(2, g) for g in list(matrix_units(4))[::-1]]
    family2 = build_complete_family(small_state, generators=reversed_gens)
    rng = np.random.default_rng(8)
    for _ in range(10):
        probe = random_excitation(small_state, rng, level=2)
        assert completeness_sum(family, probe) == pytest.approx(
            completeness_sum(family2, probe), abs=1e-8)


def _gram_schmidt_family(state, generators):
    """Members of the reference construction: Gram-Schmidt, then make_excitation."""
    d = state.dim
    gs = nk.gram_schmidt([(state.embed(g) @ state.sqrt_lam).ravel() for g in generators])
    return [make_excitation(state, LocalOperator(state.tower.levels,
                                                 v.reshape(d, d) @ state.inv_sqrt_lam))
            for v in gs.vectors]


@pytest.fixture(scope="module", params=[(2, 2), (2, 2, 4)], ids=["2x2", "2x2x4"])
def family_state(request):
    return sample_generic_state(build_tower(request.param), seed=7)


@pytest.mark.parametrize("order", ["default", "reversed"])
def test_family_matches_gram_schmidt(family_state, order):
    from funnelstates.funnel import matrix_units

    units = list(matrix_units(family_state.dim))
    if order == "default":
        family = build_complete_family(family_state)
    else:
        units = units[::-1]
        family = build_complete_family(
            family_state, generators=[LocalOperator(family_state.tower.levels, g) for g in units])
    reference = _gram_schmidt_family(family_state, units)
    assert len(family) == len(reference) == family_state.dim ** 2
    for member, ref in zip(family.members, reference):
        assert np.max(np.abs(member.vector - ref.vector)) <= 1e-12
        assert abs(member.canonical_phase - ref.canonical_phase) <= 1e-12
        np.testing.assert_allclose(member.op.matrix, ref.op.matrix, atol=1e-10)


def _count_gram_schmidt(monkeypatch) -> list:
    calls = []
    gram_schmidt = nk.gram_schmidt
    monkeypatch.setattr(nk, "gram_schmidt",
                        lambda vectors: calls.append(len(vectors)) or gram_schmidt(vectors))
    return calls


@pytest.mark.parametrize("profile", ["random_full_rank", "near_tracial"])
@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 2, 4), (2, 2, 5)])
def test_default_family_qr_clears_the_rule_by_sqrt_eps_sep(dims, profile, monkeypatch):
    # |R_kk| >= sigma_min(sqrt(lam)) >= sqrt(eps_sep) and ||g_k|| <= 1: the
    # default QR needs no conditioning test on any admitted tower
    calls = _count_gram_schmidt(monkeypatch)
    state = sample_generic_state(build_tower(dims), seed=42, profile=profile)
    family = build_complete_family(state)
    assert family.q is not None and family._reflectors is None
    columns = state.sqrt_lam.T
    _, r = np.linalg.qr(columns)
    margin = np.min(np.abs(r.diagonal()) / np.linalg.norm(columns, axis=0))
    assert margin >= np.sqrt(state.eps_sep) > 10 * nk.CONTRACT_TOL
    assert calls == []


def test_family_duplicate_generator_falls_back(family_state, monkeypatch):
    from funnelstates.funnel import matrix_units

    # nothing to fall back to: a duplicate among the first D^2 generators
    # raises at the duplicate, and D^2 + 1 generators raise on the count
    calls = _count_gram_schmidt(monkeypatch)
    d2 = family_state.dim ** 2
    level = family_state.tower.levels
    units = [LocalOperator(level, g) for g in matrix_units(family_state.dim)]
    with pytest.raises(CompletenessUnavailableError,
                       match=f"span only {d2 - 1} of {d2} directions: generator 5 "):
        build_complete_family(family_state, generators=units[:5] + [units[3]] + units[6:])
    padded = units[:5] + [units[3]] + units[6:] + [units[5]]
    with pytest.raises(CompletenessUnavailableError, match=f"exactly {d2} generators, got more"):
        build_complete_family(family_state, generators=padded)
    with pytest.raises(CompletenessUnavailableError, match=f"exactly {d2} generators, got more"):
        build_complete_family(family_state, generators=iter(units + [units[0]]))
    assert calls == []


def test_family_rank_deficient_generators(family_state):
    from funnelstates.funnel import matrix_units

    d2 = family_state.dim ** 2
    units = list(matrix_units(family_state.dim))
    with pytest.raises(CompletenessUnavailableError,
                       match=f"span only {d2 - 1} of {d2} directions: generator 4 "):
        build_complete_family(family_state, generators=units[:4] + [units[2]] + units[5:])
    with pytest.raises(CompletenessUnavailableError, match=f"exactly {d2} generators, got {d2 - 1}"):
        build_complete_family(family_state, generators=units[1:])


def test_family_members_view_stored_vectors(small_state):
    family = build_complete_family(small_state)
    assert not family.vectors.flags.writeable
    np.testing.assert_allclose(family.overlaps, np.conj(family.vectors) @ family.vectors.T,
                               atol=1e-14)
    for k, member in enumerate(family.members):
        assert np.shares_memory(member.mat, family.vectors)
        assert not member.mat.flags.writeable
        np.testing.assert_array_equal(member.vector, family.vectors[k])
        assert member._rho is None  # derived on first read only
    member = family.members[5]
    exc = random_excitation(small_state, np.random.default_rng(5), level=2)
    for e in (member, exc):
        assert np.array_equal(e.rho, e.mat @ nk.dagger(e.mat))
        assert e.rho is e.rho


def test_family_members_on_first_read(state):
    import tracemalloc

    from funnelstates.excitations import _gauge_phase

    tracemalloc.start()
    try:
        family = build_complete_family(state)
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert family._members is None and family._vectors is None
    assert live <= family.q.nbytes + family.block.nbytes + 64 * 1024
    d = state.dim
    members = family.members
    assert family.members is members
    assert len(members) == len(family) == d * d
    for row, member in zip(family.vectors, members):
        assert np.shares_memory(member.mat, row)
        assert np.array_equal(member.op.matrix, row.reshape(d, d) @ state.inv_sqrt_lam)
        assert member.top is member.op.matrix
        assert member.canonical_phase == _gauge_phase(row)
        assert member.level == state.tower.levels


def test_max_off_diagonal_equals_the_subtracted_form(small_state):
    from funnelstates.funnel import matrix_units

    default = build_complete_family(small_state)
    generic = build_complete_family(small_state, generators=list(matrix_units(4))[::-1])
    rng = np.random.default_rng(2)
    noisy = OrthogonalFamily(members=default.members,
                             overlaps=default.overlaps + 1e-3 * nk.random_complex_matrix(rng, 16))
    for family in (default, generic, noisy):
        ov = family.overlaps
        assert family.max_off_diagonal() == float(np.max(np.abs(ov - np.diag(np.diag(ov)))))


def test_generic_family_overlaps_on_first_read(small_state):
    from funnelstates.funnel import matrix_units

    family = build_complete_family(small_state, generators=list(matrix_units(4))[::-1])
    assert family._overlaps is None and family._vectors is None  # not formed at build time
    overlaps = family.overlaps
    np.testing.assert_allclose(overlaps, np.conj(family.vectors) @ family.vectors.T,
                               rtol=0, atol=1e-14)
    assert family.overlaps is overlaps
    assert family.max_off_diagonal() <= 1e-9
    assert family.max_norm_deviation() <= 1e-10
    # the default path keeps only the D x D block of its block-diagonal
    # overlaps, and forms the D^2 x D^2 matrix on first read as well
    default = build_complete_family(small_state)
    assert default._overlaps is None and default.block.shape == (4, 4)
    # a family built by hand without overlaps derives them too
    partial = OrthogonalFamily(members=default.members[1:])
    np.testing.assert_allclose(partial.overlaps, default.overlaps[1:, 1:], rtol=0, atol=1e-14)
    assert OrthogonalFamily(members=default.members[:1]).max_off_diagonal() == 0.0
    assert OrthogonalFamily(members=[]).max_off_diagonal() == 0.0
    assert OrthogonalFamily(members=[]).max_norm_deviation() == 0.0


def test_default_family_keeps_only_the_overlap_block(state):
    import tracemalloc

    tracemalloc.start()
    try:
        family = build_complete_family(state)
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = family.block
    assert family._overlaps is None and family._vectors is None
    assert block.shape == (state.dim, state.dim)
    assert live <= family.q.nbytes + block.nbytes + 64 * 1024
    # the checks read the block; the dense kron gives the same values bit for bit
    dense = np.kron(np.eye(state.dim), block)
    off = np.abs(dense)
    np.fill_diagonal(off, 0.0)
    assert family.max_off_diagonal() == float(off.max())
    assert family.max_norm_deviation() == float(np.max(np.abs(np.diag(dense) - 1.0)))
    assert family._overlaps is None
    overlaps = family.overlaps
    assert np.array_equal(overlaps, dense)
    assert family.overlaps is overlaps


@pytest.fixture(scope="module", params=[(2, 2), (2, 2, 4), (2, 2, 8)],
                ids=["2x2", "2x2x4", "2x2x8"])
def ladder_state(request):
    return sample_generic_state(build_tower(request.param), seed=7)


def test_family_coefficients_match_the_dense_rows(ladder_state):
    from funnelstates.funnel import matrix_units

    state = ladder_state
    d = state.dim
    units = list(matrix_units(d))[::-1]
    default = build_complete_family(state)
    generic = build_complete_family(
        state, generators=[LocalOperator(state.tower.levels, g) for g in units])
    hand_built = OrthogonalFamily(members=default.members[:7])
    # dense references: kron(1, q^T), and the phase-rotated Q of a reduced
    # QR of the generator vectors
    cols = np.array([(state.embed(LocalOperator(state.tower.levels, g)) @ state.sqrt_lam).ravel()
                     for g in units]).T
    q, r = np.linalg.qr(cols)
    q *= r.diagonal() / np.abs(r.diagonal())
    dense = [(default, np.kron(np.eye(d), default.q.T)), (generic, q.T),
             (hand_built, np.array([m.vector for m in default.members[:7]]))]
    rng = np.random.default_rng(3)
    for _ in range(3):
        x = nk.random_complex_matrix(rng, d * d, 1).ravel()
        for family, rows in dense:
            assert np.max(np.abs(family.coefficients(x) - np.conj(rows) @ x)) <= 1e-13
    # the default rows are q^T written into zeroed diagonal blocks: the same
    # values as the kron
    assert np.array_equal(default.vectors, dense[0][1])


def test_generic_family_holds_only_its_reflectors(state):
    import tracemalloc

    from funnelstates.funnel import matrix_units

    n = state.dim ** 2
    generators = [LocalOperator(state.tower.levels, g) for g in list(matrix_units(state.dim))[::-1]]
    tracemalloc.start()
    try:
        family = build_complete_family(state, generators=generators)
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert family._vectors is None and family._members is None and family._overlaps is None
    # the raw factor h is n x n, tau has n entries, and the T blocks n x 32
    h, tau, t_blocks = n * n * 16, n * 16, n * 32 * 16
    assert live <= h + tau + t_blocks + 64 * 1024
    assert len(family) == n and family._vectors is None  # len forms nothing


def test_family_forms_and_their_fallback(small_state, monkeypatch):
    from funnelstates.funnel import matrix_units

    calls = _count_gram_schmidt(monkeypatch)
    d2 = small_state.dim ** 2
    level = small_state.tower.levels
    units = [LocalOperator(level, g) for g in matrix_units(small_state.dim)]
    default = build_complete_family(small_state)
    generic = build_complete_family(small_state, generators=units[::-1])
    assert default.q is not None and default._reflectors is None
    assert generic.q is None and generic._reflectors is not None
    # the input that once fell back to Gram-Schmidt rows now raises, and no
    # build, good or bad, calls gram_schmidt
    with pytest.raises(CompletenessUnavailableError, match=f"exactly {d2} generators, got more"):
        build_complete_family(
            small_state, generators=units[:5] + [units[3]] + units[6:] + [units[5]])
    with pytest.raises(CompletenessUnavailableError, match=f"span only {d2 - 1} of {d2}"):
        build_complete_family(small_state, generators=units[:4] + [units[2]] + units[5:])
    assert calls == []


def test_completeness_sum_hand_built_family(small_state):
    family = build_complete_family(small_state)
    partial = OrthogonalFamily(members=family.members[1:], overlaps=family.overlaps[1:, 1:])
    assert partial.vectors.shape == (15, 16)
    assert not np.shares_memory(partial.vectors, family.vectors)
    probe = random_excitation(small_state, np.random.default_rng(3), level=2)
    missing = transition_probability(probe, family.members[0])
    assert missing > 1e-6
    assert completeness_sum(partial, probe) == pytest.approx(
        completeness_sum(family, probe) - missing, abs=1e-12)
    assert completeness_sum(OrthogonalFamily(members=[], overlaps=np.zeros((0, 0))), probe) == 0.0


def test_family_mixing_two_states_rejected(small_state):
    other = sample_generic_state(small_state.tower, seed=8)
    a = random_excitation(small_state, np.random.default_rng(1), level=2)
    b = random_excitation(other, np.random.default_rng(2), level=2)
    with pytest.raises(ContractError):
        OrthogonalFamily(members=[a, b], overlaps=np.eye(2))


def test_completeness_sum_rejects_foreign_probe(small_state):
    family = build_complete_family(small_state)
    other = sample_generic_state(small_state.tower, seed=8)
    probe = random_excitation(other, np.random.default_rng(4), level=2)
    with pytest.raises(ContractError):
        completeness_sum(family, probe)


# -- Uhlmann comparison --------------------------------------------------


def test_uhlmann_self(state, rng):
    a = random_excitation(state, rng, level=1)
    assert uhlmann_fidelity(a, a) == pytest.approx(1.0, abs=1e-9)


def test_uhlmann_dominates_transition(state, rng):
    for _ in range(50):
        a = random_excitation(state, rng, level=2)
        b = random_excitation(state, rng, level=2)
        assert uhlmann_fidelity(a, b) >= transition_probability(a, b) - 1e-10


def test_uhlmann_equality_for_pure_reference(pure_state):
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = random_excitation(pure_state, rng, level=1)
        b = random_excitation(pure_state, rng, level=2)
        assert uhlmann_fidelity(a, b) == pytest.approx(
            transition_probability(a, b), abs=1e-9)


def test_uhlmann_strict_gap_witness_for_mixed(state):
    rng = np.random.default_rng(3)
    best = 0.0
    for _ in range(10):
        a = random_excitation(state, rng, level=1)
        b = random_excitation(state, rng, level=1)
        best = max(best, uhlmann_fidelity(a, b) - transition_probability(a, b))
    assert best > 1e-3


def _sqrt_form_fidelity(a, b):
    """(tr |sqrt(rho_A) sqrt(rho_B)|)^2 through the two density square roots."""
    sa = nk.sqrtm_psd(a.mat @ nk.dagger(a.mat))
    sb = nk.sqrtm_psd(b.mat @ nk.dagger(b.mat))
    return float(nk.trace_norm(sa @ sb) ** 2)


@pytest.mark.parametrize("dims", [(2, 2, 4), (2, 2, 8)])
@pytest.mark.parametrize("profile", ["random_full_rank", "near_tracial", "pure"])
def test_uhlmann_matches_the_square_root_form(dims, profile):
    state = sample_generic_state(build_tower(dims), seed=5, profile=profile)
    rng = np.random.default_rng(6)
    levels = state.tower.levels
    for k in range(6):
        a = random_excitation(state, rng, level=1 + k % levels)
        b = random_excitation(state, rng, level=levels - k % levels)
        f = uhlmann_fidelity(a, b)
        assert abs(f - _sqrt_form_fidelity(a, b)) <= 1e-12
        assert abs(f - uhlmann_fidelity(b, a)) <= 1e-12
        rotated = make_excitation(state, LocalOperator(a.level, np.exp(0.7j) * a.op.matrix))
        assert abs(uhlmann_fidelity(rotated, b) - f) <= 1e-12


def test_uhlmann_forms_no_density_and_no_square_root(state, monkeypatch):
    calls = []
    original = nk.sqrtm_psd
    monkeypatch.setattr(nk, "sqrtm_psd", lambda m: calls.append(1) or original(m))
    rng = np.random.default_rng(8)
    a = random_excitation(state, rng, level=1)
    b = random_excitation(state, rng, level=3)
    assert a._rho is None and b._rho is None
    uhlmann_fidelity(a, b)
    assert a._rho is None and b._rho is None
    assert len(calls) == 0


# -- quadratic distance bound --------------------------------------------


def test_fuchs_identical_states(state, rng):
    a = random_excitation(state, rng, level=1)
    rep = fuchs_bound_check(a, a)
    assert rep.transition == pytest.approx(1.0, abs=1e-12)
    assert rep.bound == pytest.approx(1.0, abs=1e-12)


def test_fuchs_bound_holds_and_gaps(state, rng):
    min_slack = np.inf
    max_slack = -np.inf
    for _ in range(100):
        a = random_excitation(state, rng, level=2)
        b = random_excitation(state, rng, level=2)
        rep = fuchs_bound_check(a, b)
        assert rep.holds
        min_slack = min(min_slack, rep.slack)
        max_slack = max(max_slack, rep.slack)
    assert min_slack >= -1e-10
    assert max_slack > 1e-3  # strict gap witnesses exist for a mixed reference


def test_fuchs_equality_for_pure_reference(pure_state):
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = random_excitation(pure_state, rng, level=1)
        b = random_excitation(pure_state, rng, level=2)
        rep = fuchs_bound_check(a, b)
        assert rep.pure_equality_residual <= 1e-9
        # the doubled-space identity behind the equality branch
        bh = norm_distance(a, b, scope="full_bh")
        assert transition_probability(a, b) == pytest.approx(
            1 - 0.25 * bh**2, abs=1e-9)


# -- local continuity ----------------------------------------------------


def test_continuity_constant_schedule(state, rng):
    a = random_excitation(state, rng, level=1)
    b = random_excitation(state, rng, level=1)
    zero = LocalOperator(1, np.zeros((2, 2), dtype=complex))
    rep = local_continuity_probe(a, b, zero, scales=[1, 2, 4])
    assert max(rep.deviations()) <= 1e-14


def test_continuity_envelope(state, rng):
    a = random_excitation(state, rng, level=2)
    b = random_excitation(state, rng, level=2)
    x = LocalOperator(2, nk.random_complex_matrix(rng, 4))
    rep = local_continuity_probe(a, b, x, scales=[1, 2, 4, 8, 16, 32, 64])
    devs = rep.deviations()
    assert devs[-1] <= rep.envelope_coefficient / 64 + 1e-12
    assert devs[-1] < devs[0]


def test_continuity_orthogonal_quadratic_direction(state, rng):
    # perturbing in a doubled-space-orthogonal direction scaled by 1/m^2
    # decays faster than the generic 1/m schedule
    a = random_excitation(state, rng, level=3)
    b = random_excitation(state, rng, level=3)
    g = nk.random_complex_matrix(rng, 16)
    v = (g @ state.sqrt_lam).ravel()
    v -= np.vdot(a.vector, v) * a.vector
    x_orth = v.reshape(16, 16) @ state.inv_sqrt_lam

    generic = local_continuity_probe(a, b, LocalOperator(3, g), scales=[4, 8, 16])
    rep_quad = []
    for m in (4, 8, 16):
        perturbed = make_excitation(
            state, LocalOperator(3, a.op.matrix + x_orth / (m * m)))
        rep_quad.append(abs(transition_probability(perturbed, b)
                            - transition_probability(a, b)))
    for fast, slow in zip(rep_quad, generic.deviations()):
        assert fast < slow
