"""Dense complex linear algebra shared by every other module.

Tensor indexing is row-major throughout: the left factor of a Kronecker
product is the slowest index, so ``vec(A @ X) == kron(A, eye(n)) @ vec(X)``
with ``vec = ndarray.ravel()``.  All randomness is drawn from explicitly
passed ``numpy.random.Generator`` instances, which keeps every construction
seedable and reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError

# Contract checks at 1e-10 relative; equality tolerances belong to the checks
# that assert them.  Double precision leaves ample headroom at these sizes.
CONTRACT_TOL = 1e-10

CMatrix = np.ndarray


def as_cmatrix(m) -> CMatrix:
    """Coerce to a complex 2-d array and reject non-finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ContractError(f"expected a matrix, got ndim={a.ndim}")
    require_finite(a)
    return a


def require_finite(a) -> None:
    if not np.isfinite(a).all():
        raise ContractError("matrix contains NaN or Inf entries")


def dagger(m: CMatrix) -> CMatrix:
    return np.conj(m.T)


def frob(m: CMatrix) -> float:
    return float(np.linalg.norm(m))


def _phase_fix_columns(q: CMatrix) -> CMatrix:
    """Rotate each column so its largest-modulus entry is real positive.

    Makes eigenbases deterministic up to degenerate clusters.  The phases are
    computed as scalars: array division rounds differently in the last bit.
    """
    peaks = q[np.argmax(np.abs(q), axis=0), np.arange(q.shape[1])]
    phases = np.array([np.conj(a) / abs(a) if abs(a) > 0.0 else 1.0 for a in peaks],
                      dtype=complex)
    return q * phases


@dataclass(frozen=True)
class HermEig:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def herm_eig(m) -> HermEig:
    """Eigendecomposition of a Hermitian matrix.

    Raises ContractError when the input is not Hermitian within the relative
    tolerance.  Column phases are fixed deterministically; the basis within a
    degenerate eigenvalue cluster remains implementation-defined.
    """
    m = as_cmatrix(m)
    scale = max(frob(m), 1.0)
    if frob(m - dagger(m)) > CONTRACT_TOL * scale:
        raise ContractError("herm_eig requires a Hermitian matrix")
    vals, vecs = np.linalg.eigh((m + dagger(m)) / 2.0)
    order = np.argsort(vals)[::-1]
    vals = np.real(vals[order])
    vecs = _phase_fix_columns(vecs[:, order])
    return HermEig(eigenvalues=vals, eigenvectors=vecs)


def trace_norm(m) -> float:
    """Sum of singular values."""
    m = as_cmatrix(m)
    return float(np.linalg.svd(m, compute_uv=False).sum())


def herm_trace_norm(m) -> float:
    """`trace_norm` of a Hermitian matrix, as the sum of its eigenvalues' moduli.

    Only the lower triangle is read, so the caller guarantees the symmetry.
    """
    m = as_cmatrix(m)
    return float(np.abs(np.linalg.eigvalsh(m)).sum())


@dataclass
class GramSchmidtResult:
    vectors: list = field(default_factory=list)
    dropped: list = field(default_factory=list)


def gram_schmidt(vectors) -> GramSchmidtResult:
    """Orthonormalize a vector family, dropping near-dependent members.

    A vector is dropped when its component orthogonal to the span of the
    accepted ones falls below `CONTRACT_TOL` times its own norm.  A second
    orthogonalization pass keeps pairwise inner products at machine level.
    """
    vectors = [np.asarray(v, dtype=complex).ravel() for v in vectors]
    result = GramSchmidtResult()
    if not vectors:
        return result
    dim = vectors[0].size
    basis = np.zeros((dim, len(vectors)), dtype=complex)
    count = 0
    for idx, v in enumerate(vectors):
        n0 = float(np.linalg.norm(v))
        if n0 <= CONTRACT_TOL:
            result.dropped.append(idx)
            continue
        w = v.copy()
        if count:
            q = basis[:, :count]
            for _ in range(2):  # re-orthogonalize for numerical stability
                w = w - q @ (np.conj(q.T) @ w)
        n = float(np.linalg.norm(w))
        if n <= CONTRACT_TOL * n0:
            result.dropped.append(idx)
            continue
        basis[:, count] = w / n
        count += 1
    result.vectors = [basis[:, j].copy() for j in range(count)]
    return result


def sqrtm_psd(m) -> CMatrix:
    """Square root of a positive semidefinite Hermitian matrix."""
    eig = herm_eig(m)
    vals = eig.eigenvalues
    floor = -1e-13 * max(abs(vals[0]) if len(vals) else 1.0, 1.0)
    if len(vals) and vals[-1] < floor:
        raise ContractError(f"matrix is not PSD: min eigenvalue {vals[-1]:.3e}")
    clipped = np.clip(vals, 0.0, None)
    q = eig.eigenvectors
    return (q * np.sqrt(clipped)) @ dagger(q)


# ---------------------------------------------------------------------------
# Seeded sampling helpers
# ---------------------------------------------------------------------------


_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def random_complex_matrix(rng: np.random.Generator, rows: int, cols=None) -> CMatrix:
    """(G + iH) / sqrt(2) for standard normal G, H, drawn as one (2, rows, cols) block.

    The block holds the real parts first, so it reads the generator's stream
    exactly as two (rows, cols) draws, G then H, would.  NumPy divides a
    complex array by the real sqrt(2) as a multiplication by 1 / sqrt(2), so
    scaling the parts in place gives the same bytes as that division.
    """
    cols = rows if cols is None else cols
    parts = rng.standard_normal((2, rows, cols))
    parts *= _INV_SQRT2
    out = np.empty((rows, cols), dtype=complex)
    out.real, out.imag = parts
    return out


def haar_unitary(rng: np.random.Generator, n: int) -> CMatrix:
    g = random_complex_matrix(rng, n)
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_projection(rng: np.random.Generator, n: int, rank: int) -> CMatrix:
    if not 0 < rank <= n:
        raise ContractError(f"projection rank {rank} out of range for dimension {n}")
    u = haar_unitary(rng, n)[:, :rank]
    return u @ dagger(u)


def random_unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    v = random_complex_matrix(rng, n, 1).ravel()
    return v / np.linalg.norm(v)
