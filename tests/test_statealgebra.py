import numpy as np
import pytest

from funnelstates import (
    BudgetError,
    ContractError,
    FaithfulnessError,
    LocalOperator,
    build_complete_family,
    make_excitation,
    identity_excitation,
    overlap,
    transition_probability,
)
from funnelstates import excitations
from funnelstates import statealgebra as sa
from funnelstates import numkernel as nk
from funnelstates.excitations import random_excitation

from conftest import kernel


def _element(state, rng, n_terms=2, level=3):
    terms = []
    for _ in range(n_terms):
        c = complex(rng.standard_normal(), rng.standard_normal())
        terms.append((c, random_excitation(state, rng, level=level)))
    return sa.element_from_terms(state, terms)


# -- kernel representation -----------------------------------------------


def test_functional_kernel_consistency(state, rng):
    psi = _element(state, rng, n_terms=3)
    dense = kernel(psi)
    for _ in range(10):
        c = nk.random_complex_matrix(rng, 16)
        via_kernel = np.trace(dense @ np.kron(c, np.eye(16)))
        via_terms = sum(cm * exc.evaluate(LocalOperator(3, c)) for cm, exc in psi.terms)
        assert abs(psi.evaluate(LocalOperator(3, c)) - via_terms) <= 1e-10
        assert abs(via_kernel - via_terms) <= 1e-10


def test_zero_lives_on_kernel_not_coefficients(state, rng):
    a = random_excitation(state, rng, level=1)
    b = make_excitation(state, LocalOperator(1, 1j * a.op.matrix))
    # different coefficient lists, same ray: psi = i omega_A - i omega_{iA} = 0? no:
    # omega_{iA} equals omega_A as a state, so the coefficients cancel exactly.
    psi = sa.element_from_terms(state, [(1.0, a), (-1.0, b)])
    assert psi.kernel_norm() <= 1e-10
    assert sa.canonicalize(psi).terms == ()


def test_canonicalize_respects_budget(state, rng):
    terms = [(1.0, random_excitation(state, rng, level=3)) for _ in range(70)]
    with pytest.raises(BudgetError) as err:
        sa.element_from_terms(state, terms)
    assert err.value.suggested_budget > 64


def test_budget_is_enforced_on_kernel_rank(state, rng):
    a, b = (_element(state, rng, n_terms=40) for _ in range(2))
    with pytest.raises(BudgetError) as err:
        sa.add(a, b)
    assert err.value.suggested_budget == 80


def test_symmetric_elements_share_one_factorisation(state, rng, monkeypatch):
    a, b = _element(state, rng), _element(state, rng)
    assert a.right is a.left and b.right is b.left
    calls = _count_svd(monkeypatch)
    # a - b stacks one factor for both sides, so one thin SVD serves both
    distance = sa.kernel_distance(a, b)
    assert len(calls) == 1
    assert abs(distance - np.linalg.norm(kernel(a) - kernel(b))) <= 1e-12


def _count_svd(monkeypatch) -> list:
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: calls.append(1) or svd(*args, **kw))
    return calls


def test_sums_over_shared_factors_add_the_cores(state, rng, monkeypatch):
    p1, p2, p3 = (_element(state, rng) for _ in range(3))
    # both products keep p1's left factor and p3's right factor
    a, b = sa.times(p1, p3), sa.times(sa.times(p1, p2), p3)
    assert a.left is b.left and a.right is b.right
    calls = _count_svd(monkeypatch)
    total = sa.add(a, b)
    assert calls == []
    assert total.left is a.left and total.right is a.right
    assert np.linalg.norm(kernel(total) - (kernel(a) + kernel(b))) <= 1e-12


def test_terms_over_one_shared_factor_need_no_svd(state, rng, monkeypatch):
    psi = _element(state, rng, n_terms=3)
    assert psi.left is psi.right
    calls = _count_svd(monkeypatch)
    terms = psi.terms
    assert calls == []
    rebuilt = sa.element_from_terms(state, terms)
    assert np.linalg.norm(kernel(rebuilt) - kernel(psi)) <= 1e-10


def test_operations_build_no_excitation(state, rng, monkeypatch):
    p1, p2, p3 = (_element(state, rng) for _ in range(3))
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    # statealgebra builds excitations only through excitations._excitation_with_vector
    monkeypatch.setattr(excitations, "make_excitation", counted(excitations.make_excitation))
    monkeypatch.setattr(nk, "herm_eig", counted(nk.herm_eig))
    monkeypatch.setattr(nk, "gram_schmidt", counted(nk.gram_schmidt))
    op = LocalOperator(1, nk.random_complex_matrix(rng, 2))
    chain = sa.times(sa.add(p1, sa.scale(2j, p2)), sa.dagger(p3))
    chain = sa.bimodule_act("right", op, sa.bimodule_act("left", op, chain))
    sa.add(chain, sa.times(chain, p1)).kernel_norm()
    assert calls == []


def test_kernel_norm_matches_dense_kernel(state, rng):
    product = sa.times(_element(state, rng), _element(state, rng))
    a = random_excitation(state, rng, level=3)
    x = nk.random_complex_matrix(rng, 16)
    b = make_excitation(state, LocalOperator(3, a.op.matrix + 1e-7 * x))
    near_zero = sa.add(sa.excitation_element(a), sa.scale(-1.0, sa.excitation_element(b)))
    assert 0 < near_zero.kernel_norm() < 1e-5
    for el in (product, near_zero):
        assert abs(el.kernel_norm() - np.linalg.norm(kernel(el))) <= 1e-12


def test_product_terms_reconstruct_kernel(state, rng):
    product = sa.times(_element(state, rng), _element(state, rng))
    recon = sum(c * np.outer(exc.vector, np.conj(exc.vector)) for c, exc in product.terms)
    assert np.linalg.norm(recon - kernel(product)) <= 1e-10


def test_terms_do_not_call_canonicalize(state, rng, monkeypatch):
    # a wrapper around the public canonicalize may read .terms of its result,
    # so deriving .terms must not go through it
    def refuse(el):
        raise AssertionError("reading .terms called canonicalize")

    monkeypatch.setattr(sa, "canonicalize", refuse)
    product = sa.times(_element(state, rng), _element(state, rng))
    assert product.terms and product.terms is product.terms


def test_kernel_multiplicative_dense_small_tower(small_state):
    rng = np.random.default_rng(0)
    p1 = _element(small_state, rng, level=2)
    p2 = _element(small_state, rng, level=2)
    prod = sa.times(p1, p2)
    np.testing.assert_allclose(kernel(prod), kernel(p1) @ kernel(p2), atol=1e-10)


# -- product -------------------------------------------------------------


def test_product_idempotent_on_states(state, rng):
    a = random_excitation(state, rng, level=1)
    pa = sa.excitation_element(a)
    assert sa.kernel_distance(sa.times(pa, pa), pa) <= 1e-10


def test_product_orthogonal_pair_vanishes(state):
    family = build_complete_family(state)
    p0 = sa.excitation_element(family.members[0])
    p1 = sa.excitation_element(family.members[1])
    assert sa.times(p0, p1).kernel_norm() <= 1e-10


def test_product_zero_iff_orthogonal(state, rng):
    family = build_complete_family(state)
    pairs = [(family.members[0], family.members[1])] + [
        (random_excitation(state, rng, level=1), random_excitation(state, rng, level=1))
        for _ in range(5)
    ]
    for a, b in pairs:
        prod_zero = sa.times(sa.excitation_element(a), sa.excitation_element(b)).kernel_norm() <= 1e-10
        assert prod_zero == (transition_probability(a, b) <= 1e-9)


def test_triple_product_closed_form(state, rng):
    a = random_excitation(state, rng, level=1)
    b = random_excitation(state, rng, level=2)
    c = random_excitation(state, rng, level=1)
    value = sa.times(sa.times(sa.excitation_element(a), sa.excitation_element(b)),
                     sa.excitation_element(c)).evaluate(LocalOperator(1, np.eye(2)))
    assert abs(value - overlap(a, b) * overlap(b, c) * overlap(c, a)) <= 1e-10


def test_product_value_at_identity_is_transition(state, rng):
    a, b = (random_excitation(state, rng, level=2) for _ in range(2))
    prod = sa.times(sa.excitation_element(a), sa.excitation_element(b))
    value = prod.evaluate(LocalOperator(1, np.eye(2)))
    assert abs(value - overlap(a, b) * overlap(b, a)) <= 1e-12
    assert abs(abs(overlap(a, b)) ** 2 - transition_probability(a, b)) <= 1e-12


def test_associativity_and_minimality(state, rng):
    for _ in range(10):
        p1, p2, p3 = (_element(state, rng) for _ in range(3))
        assert sa.kernel_distance(
            sa.times(sa.times(p1, p2), p3), sa.times(p1, sa.times(p2, p3))) <= 1e-10
    a = random_excitation(state, rng, level=1)
    c = random_excitation(state, rng, level=2)
    pa, pc = sa.excitation_element(a), sa.excitation_element(c)
    chain = sa.times(sa.times(pa, pc), pa)
    assert sa.kernel_distance(chain, sa.scale(transition_probability(a, c), pa)) <= 1e-10


# -- involution ----------------------------------------------------------


def test_dagger_on_real_projection(state, rng):
    pa = sa.excitation_element(random_excitation(state, rng, level=1))
    assert sa.kernel_distance(sa.dagger(pa), pa) <= 1e-12


def test_dagger_conjugates_coefficients(state, rng):
    a = random_excitation(state, rng, level=1)
    pi_a = sa.scale(1j, sa.excitation_element(a))
    assert sa.kernel_distance(sa.dagger(pi_a), sa.scale(-1j, sa.excitation_element(a))) <= 1e-12


def test_dagger_involution_and_antimultiplicative(state, rng):
    p1, p2 = _element(state, rng), _element(state, rng)
    assert sa.kernel_distance(sa.dagger(sa.dagger(p1)), p1) <= 1e-12
    assert sa.kernel_distance(
        sa.dagger(sa.times(p1, p2)), sa.times(sa.dagger(p2), sa.dagger(p1))) <= 1e-10


# -- spectral decomposition ----------------------------------------------


def test_spectral_orthogonal_sum_weights(state):
    family = build_complete_family(state)
    a1, a2 = family.members[2], family.members[7]
    psi = sa.element_from_terms(state, [(1.0, a1), (1.0, a2)])
    weights = [w for w, _ in sa.spectral_decompose(psi)]
    np.testing.assert_allclose(np.sort(weights), [1.0, 1.0], atol=1e-10)


def test_spectral_two_state_overlap_oracle(state, rng):
    a, b = (random_excitation(state, rng, level=1) for _ in range(2))
    s = abs(overlap(a, b))
    assert 0 < s < 1
    psi = sa.element_from_terms(state, [(0.5, a), (0.5, b)])
    pairs = sa.spectral_decompose(psi)
    weights = np.array([w for w, _ in pairs])
    # brute-force oracle: eigenvalues of (P1 + P2)/2 on the two-dimensional
    # span are (1 +/- s)/2
    expected = np.array([(1 + s) / 2, (1 - s) / 2])
    np.testing.assert_allclose(np.sort(weights)[::-1], expected, atol=1e-10)
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            assert transition_probability(pairs[i][1], pairs[j][1]) <= 1e-9
    # a convex mixture, given back by its pairs
    assert np.all(weights >= -1e-10) and abs(weights.sum() - 1.0) <= 1e-9
    assert sa.kernel_distance(sa.element_from_terms(state, pairs), psi) <= 1e-9


def test_spectral_requires_symmetric_input(state, rng):
    psi = _element(state, rng)
    skew = sa.add(psi, sa.scale(-1.0, sa.dagger(psi)))
    if skew.kernel_norm() > 1e-8:
        with pytest.raises(ContractError):
            sa.spectral_decompose(skew)


def test_spectral_reconstruction_sweep(state, rng):
    for _ in range(10):
        p = _element(state, rng, n_terms=3)
        sym = sa.scale(0.5, p + sa.dagger(p))
        pairs = sa.spectral_decompose(sym)
        assert sa.kernel_distance(sa.element_from_terms(state, pairs), sym) <= 1e-9


# -- bimodule ------------------------------------------------------------


def test_bimodule_identity_acts_trivially(state, rng):
    psi = _element(state, rng)
    eye = LocalOperator(1, np.eye(2, dtype=complex))
    assert sa.kernel_distance(sa.bimodule_act("left", eye, psi), psi) <= 1e-10
    assert sa.kernel_distance(sa.bimodule_act("right", eye, psi), psi) <= 1e-10


def test_bimodule_left_action_evaluates(state, rng):
    b = random_excitation(state, rng, level=1)
    a_op = LocalOperator(1, nk.random_complex_matrix(rng, 2))
    c_op = LocalOperator(1, nk.random_complex_matrix(rng, 2))
    acted = sa.bimodule_act("left", a_op, sa.excitation_element(b))
    direct = b.evaluate(LocalOperator(1, a_op.matrix @ c_op.matrix))
    assert abs(acted.evaluate(c_op) - direct) <= 1e-12


def test_bimodule_right_action_evaluates(state, rng):
    b = random_excitation(state, rng, level=1)
    a_op = LocalOperator(1, nk.random_complex_matrix(rng, 2))
    c_op = LocalOperator(1, nk.random_complex_matrix(rng, 2))
    acted = sa.bimodule_act("right", a_op, sa.excitation_element(b))
    direct = b.evaluate(LocalOperator(1, c_op.matrix @ a_op.matrix))
    assert abs(acted.evaluate(c_op) - direct) <= 1e-12


def test_bimodule_composition_swaps_order(state, rng):
    # (A x (B x psi))(C) = psi(BAC): composing left actions multiplies in
    # reverse order, matching the kernel picture K -> K (A (x) 1)
    psi = _element(state, rng)
    a_op = LocalOperator(1, nk.random_complex_matrix(rng, 2))
    b_op = LocalOperator(1, nk.random_complex_matrix(rng, 2))
    ba = LocalOperator(1, b_op.matrix @ a_op.matrix)
    lhs = sa.bimodule_act("left", a_op, sa.bimodule_act("left", b_op, psi))
    assert sa.kernel_distance(lhs, sa.bimodule_act("left", ba, psi)) <= 1e-10


def test_bimodule_left_right_compatible(state, rng):
    psi = _element(state, rng)
    a_op = LocalOperator(1, nk.random_complex_matrix(rng, 2))
    b_op = LocalOperator(2, nk.random_complex_matrix(rng, 4))
    lhs = sa.bimodule_act("right", b_op, sa.bimodule_act("left", a_op, psi))
    rhs = sa.bimodule_act("left", a_op, sa.bimodule_act("right", b_op, psi))
    assert sa.kernel_distance(lhs, rhs) <= 1e-10


# -- dual states and faithfulness ------------------------------------------


def test_dual_projection_expectation(state, rng):
    a = random_excitation(state, rng, level=1)
    assert sa.dual_state_apply(a, sa.excitation_element(a)) == pytest.approx(1.0, abs=1e-10)


def test_dual_transition_probability(state, rng):
    a, b = (random_excitation(state, rng, level=2) for _ in range(2))
    assert sa.dual_state_apply(a, sa.excitation_element(b)) == pytest.approx(
        transition_probability(a, b), abs=1e-12)


def test_dual_positivity(state, rng):
    for _ in range(20):
        psi = _element(state, rng)
        probe = random_excitation(state, rng, level=1)
        val = sa.dual_state_apply(probe, sa.times(sa.dagger(psi), psi))
        assert np.real(val) >= -1e-10
        assert abs(np.imag(val)) <= 1e-10


def test_faithfulness_witness_simple(state, rng):
    psi = sa.excitation_element(random_excitation(state, rng, level=1))
    assert abs(sa.faithfulness_probe(psi)) > 1e-9


def test_faithfulness_witness_traceless_terms(state, rng):
    eye = np.eye(16, dtype=complex)
    terms = []
    for _ in range(2):
        x = nk.random_complex_matrix(rng, 16)
        x -= np.trace(state.lam @ x) * eye
        terms.append((1.0, make_excitation(state, LocalOperator(3, x))))
    psi = sa.element_from_terms(state, terms)
    for _, exc in psi.terms:
        pass  # terms may differ from inputs after canonicalization
    assert abs(sa.faithfulness_probe(psi)) > 1e-9


def test_faithfulness_witness_reaches_a_quarter_of_the_top_singular_value(state):
    # a kernel orthogonal to omega gives exactly sigma_1 / 4 at the shift t = 1
    eye = np.eye(16, dtype=complex)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        terms = []
        for _ in range(2):
            x = nk.random_complex_matrix(rng, 16)
            x -= np.trace(state.lam @ x) * eye
            c = complex(rng.standard_normal(), rng.standard_normal())
            terms.append((c, make_excitation(state, LocalOperator(3, x))))
        psi = sa.element_from_terms(state, terms)
        sigma = np.linalg.svd(psi.core, compute_uv=False)[0]
        assert abs(sa.faithfulness_probe(psi)) >= (1 - 1e-9) * sigma / 4


def test_faithfulness_rejects_zero(state, rng):
    with pytest.raises(ContractError):
        sa.faithfulness_probe(sa.scale(0.0, _element(state, rng)))


# -- kernel-picture isomorphism ---------------------------------------------


def test_w_identity_maps_to_reference_vector(state):
    ident = sa.excitation_element(identity_excitation(state))
    np.testing.assert_allclose(sa.w_isomorphism(ident), state.omega_vector, atol=1e-12)


def test_w_null_class(state, rng):
    eye = np.eye(16, dtype=complex)
    x = nk.random_complex_matrix(rng, 16)
    x -= np.trace(state.lam @ x) * eye
    el = sa.excitation_element(make_excitation(state, LocalOperator(3, x)))
    assert np.linalg.norm(sa.w_isomorphism(el)) <= 1e-10


def test_w_image_equals_kernel_applied_to_reference(state, rng):
    psi = _element(state, rng, n_terms=3)
    np.testing.assert_allclose(
        sa.w_isomorphism(psi), psi.kernel_apply(state.omega_vector), atol=1e-10)


def test_w_preserves_gns_inner_products(state, rng):
    for _ in range(10):
        p1, p2 = _element(state, rng), _element(state, rng)
        gns = sa.gns_inner(p1, p2)
        img = np.vdot(sa.w_isomorphism(p1), sa.w_isomorphism(p2))
        assert abs(gns - img) <= 1e-10


def test_w_intertwines_products(state, rng):
    psi, phi = _element(state, rng), _element(state, rng)
    lhs = sa.w_isomorphism(sa.times(psi, phi))
    rhs = psi.kernel_apply(sa.w_isomorphism(phi))
    assert np.linalg.norm(lhs - rhs) <= 1e-9


# -- no identity inside the budget ------------------------------------------


def test_no_budgeted_element_is_a_unit(state, rng):
    probes = [_element(state, rng) for _ in range(3)]
    # partial sums over an orthogonal family are the natural unit candidates;
    # below the full D^2 terms they all fail on some probe
    family = build_complete_family(state)
    for size in (1, 4, 16):
        candidate = sa.element_from_terms(state, [(1.0, m) for m in family.members[:size]])
        worst = max(sa.kernel_distance(sa.times(candidate, phi), phi) for phi in probes)
        assert worst > 1e-6
