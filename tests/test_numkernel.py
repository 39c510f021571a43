import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funnelstates import numkernel as nk
from funnelstates.funnel import build_tower
from funnelstates.errors import ContractError

from conftest import random_hermitian, two_draw_complex_matrix

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _complex_matrix(rng, n, m=None):
    return nk.random_complex_matrix(rng, n, m)


# -- the row-major Kronecker convention of the module docstring ----------


def test_kron_against_index_formula():
    # (a (x) b)[i*q + k, j*q + l] = a[i, j] * b[k, l]
    result = np.kron(SIGMA_X, SIGMA_Z)
    assert result[0, 2] == 1.0
    p = q = 2
    brute = np.zeros((p * q, p * q), dtype=complex)
    for i in range(p):
        for j in range(p):
            for k in range(q):
                for l in range(q):
                    brute[i * q + k, j * q + l] = SIGMA_X[i, j] * SIGMA_Z[k, l]
    np.testing.assert_allclose(result, brute)


def test_kron_vec_convention(rng):
    # row-major: vec(A @ X) == kron(A, 1) @ vec(X)
    a = _complex_matrix(rng, 3)
    x = _complex_matrix(rng, 3)
    np.testing.assert_allclose(
        (a @ x).ravel(), np.kron(a, np.eye(3)) @ x.ravel(), atol=1e-13)


# -- herm_eig -----------------------------------------------------------


def test_herm_eig_diagonal():
    eig = nk.herm_eig(np.diag([2.0, 1.0]))
    np.testing.assert_allclose(eig.eigenvalues, [2.0, 1.0])


def test_herm_eig_flip():
    eig = nk.herm_eig(SIGMA_X)
    np.testing.assert_allclose(eig.eigenvalues, [1.0, -1.0])


def test_herm_eig_reconstruction_seed7():
    rng = np.random.default_rng(7)
    m = random_hermitian(rng, 8)
    eig = nk.herm_eig(m)
    q = eig.eigenvectors
    assert nk.frob((q * eig.eigenvalues) @ nk.dagger(q) - m) <= 1e-10 * nk.frob(m)
    assert nk.frob(nk.dagger(q) @ q - np.eye(8)) <= 1e-10


def test_herm_eig_rejects_non_hermitian(rng):
    with pytest.raises(ContractError):
        nk.herm_eig(_complex_matrix(rng, 4))


def test_herm_eig_deterministic_phases(rng):
    m = random_hermitian(rng, 6)
    e1 = nk.herm_eig(m)
    e2 = nk.herm_eig(m.copy())
    np.testing.assert_array_equal(e1.eigenvectors, e2.eigenvectors)


def _phase_fix_columns_loop(q):
    """Column-by-column reference for numkernel._phase_fix_columns."""
    q = q.copy()
    for j in range(q.shape[1]):
        col = q[:, j]
        a = col[int(np.argmax(np.abs(col)))]
        if abs(a) > 0.0:
            col *= np.conj(a) / abs(a)
    return q


def test_phase_fix_columns_matches_loop(rng):
    for n in (1, 2, 5, 16, 33):
        q = nk.haar_unitary(rng, n)
        if n > 2:
            q[:, 2] = 0.0
        fixed = nk._phase_fix_columns(q)
        np.testing.assert_array_equal(fixed, _phase_fix_columns_loop(q))
        peaks = fixed[np.argmax(np.abs(fixed), axis=0), np.arange(n)]
        assert np.all(np.abs(peaks.imag) <= 1e-15)


# -- partial trace over the factors above a level: FunnelTower.reduce --


def test_partial_trace_product_case(rng):
    a = _complex_matrix(rng, 2)
    rho = a @ nk.dagger(a)
    b = _complex_matrix(rng, 3)
    sigma = b @ nk.dagger(b)
    joint = np.kron(rho, sigma)
    np.testing.assert_allclose(
        build_tower((2, 3)).reduce(joint, 1), rho * np.trace(sigma), atol=1e-12)


def test_partial_trace_bell_state():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    proj = np.outer(bell, bell.conj())
    # oracle: reduced[i, j] = sum_k proj[i*2 + k, j*2 + k]
    brute = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                brute[i, j] += proj[i * 2 + k, j * 2 + k]
    reduced = build_tower((2, 2)).reduce(proj, 1)
    np.testing.assert_allclose(reduced, brute, atol=1e-14)
    np.testing.assert_allclose(reduced, np.eye(2) / 2, atol=1e-14)


@pytest.mark.parametrize("dims", [(2, 2, 4), (2, 3, 6)])
def test_reduce_to_the_first_level_matches_a_loop(dims, rng):
    # oracle: reduced[i, j] = sum_k m[i*k_up + k, j*k_up + k], k_up = D / D_1
    tower = build_tower(dims)
    d1, d = tower.dim_at(1), tower.top_dim
    k_up = d // d1
    m = _complex_matrix(rng, d)
    brute = np.zeros((d1, d1), dtype=complex)
    for i in range(d1):
        for j in range(d1):
            for k in range(k_up):
                brute[i, j] += m[i * k_up + k, j * k_up + k]
    assert nk.frob(tower.reduce(m, 1) - brute) <= 1e-13 * nk.frob(m)


def test_partial_trace_dims_mismatch(rng):
    tower = build_tower((2, 2))
    with pytest.raises(ContractError):
        tower.reduce(_complex_matrix(rng, 6), 1)
    with pytest.raises(ContractError):
        tower.reduce(_complex_matrix(rng, 4), 3)  # no level 3


# -- trace_norm ---------------------------------------------------------


def test_trace_norm_diagonal():
    assert nk.trace_norm(np.diag([1.0, -2.0])) == pytest.approx(3.0)


def test_trace_norm_unitary(rng):
    u = nk.haar_unitary(rng, 5)
    assert nk.trace_norm(u) == pytest.approx(5.0, abs=1e-10)


def test_trace_norm_rank_one(rng):
    v = _complex_matrix(rng, 4, 1).ravel()
    w = _complex_matrix(rng, 4, 1).ravel()
    m = np.outer(v, w.conj())
    assert nk.trace_norm(m) == pytest.approx(
        np.linalg.norm(v) * np.linalg.norm(w), abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), scale=st.floats(0.1, 10.0))
def test_trace_norm_is_a_norm(seed, scale):
    rng = np.random.default_rng(seed)
    a = _complex_matrix(rng, 4)
    b = _complex_matrix(rng, 4)
    assert nk.trace_norm(a + b) <= nk.trace_norm(a) + nk.trace_norm(b) + 1e-10
    assert nk.trace_norm(scale * a) == pytest.approx(scale * nk.trace_norm(a), rel=1e-10)


# -- herm_trace_norm ----------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), rank=st.integers(0, 6), scale=st.floats(0.1, 10.0))
def test_herm_trace_norm_matches_trace_norm(seed, rank, scale):
    # a full-rank Hermitian matrix and an indefinite one of rank `rank` <= 6 in dimension 6
    rng = np.random.default_rng(seed)
    v = _complex_matrix(rng, 6, rank)
    signs = rng.choice([-1.0, 1.0], size=rank)
    for m in (scale * random_hermitian(rng, 6), scale * (v * signs) @ nk.dagger(v)):
        expected = nk.trace_norm(m)
        assert abs(nk.herm_trace_norm(m) - expected) <= 1e-12 * max(expected, 1.0)


def test_herm_trace_norm_keeps_the_matrix_contract():
    with pytest.raises(ContractError):
        nk.herm_trace_norm(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ContractError):
        nk.herm_trace_norm(np.ones(3))


# -- gram_schmidt -------------------------------------------------------


def test_gram_schmidt_basic():
    result = nk.gram_schmidt([np.array([1.0, 0.0]), np.array([1.0, 1.0])])
    np.testing.assert_allclose(result.vectors[0], [1.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(result.vectors[1], [0.0, 1.0], atol=1e-14)
    assert not result.dropped


def test_gram_schmidt_idempotent_on_orthonormal(rng):
    u = nk.haar_unitary(rng, 4)
    result = nk.gram_schmidt([u[:, j] for j in range(4)])
    for j in range(4):
        assert np.linalg.norm(result.vectors[j] - u[:, j]) <= 1e-12


def test_gram_schmidt_drops_dependent_direction():
    rng = np.random.default_rng(3)
    vectors = [nk.random_complex_matrix(rng, 4, 1).ravel() for _ in range(5)]
    # oracle: the family has rank 4 by SVD
    rank = np.linalg.matrix_rank(np.column_stack(vectors), tol=1e-10)
    assert rank == 4
    result = nk.gram_schmidt(vectors)
    assert len(result.vectors) == 4
    assert len(result.dropped) == 1
    basis = np.column_stack(result.vectors)
    off = nk.dagger(basis) @ basis - np.eye(4)
    assert np.max(np.abs(off)) <= 1e-10


def test_gram_schmidt_all_zero():
    # the first vector above CONTRACT_TOL is always kept, so an empty result
    # means every input was zero
    result = nk.gram_schmidt([np.zeros(3), np.zeros(3)])
    assert result.vectors == []
    assert result.dropped == [0, 1]


# -- misc ---------------------------------------------------------------


def test_sqrtm_psd(rng):
    g = _complex_matrix(rng, 5)
    m = g @ nk.dagger(g)
    s = nk.sqrtm_psd(m)
    assert nk.frob(s @ s - m) <= 1e-10 * nk.frob(m)


def test_finite_guard():
    bad = np.array([[1.0, np.inf], [0.0, 1.0]])
    with pytest.raises(ContractError):
        nk.as_cmatrix(bad)


# -- seeded sampling ------------------------------------------------------


@pytest.mark.parametrize("shape", [(2, 2), (4, 4), (16, 16), (32, 32), (256, 1), (3, 5)])
def test_random_complex_matrix_matches_two_draws_byte_for_byte(shape):
    # one (2, rows, cols) block reads the stream as the two draws it replaced,
    # so every seeded construction, and every draw after it, is unchanged
    for seed in range(120):
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        ref, got = two_draw_complex_matrix(ref_rng, *shape), nk.random_complex_matrix(rng, *shape)
        assert (got.dtype, got.shape, got.flags.c_contiguous) == (np.complex128, shape, True)
        assert got.tobytes() == ref.tobytes()
        assert rng.integers(2**63) == ref_rng.integers(2**63)
