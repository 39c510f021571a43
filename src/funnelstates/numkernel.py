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
    """The adjoint of a matrix, or of each matrix in a (..., n, n) stack."""
    return np.conj(m.swapaxes(-1, -2))


def frob(m: CMatrix) -> float:
    return float(np.linalg.norm(m))


def frobs(m: np.ndarray) -> np.ndarray:
    """`frob` of each member of an (n, ...) stack whose leading axis is outermost in memory, bit for bit.

    np.linalg.norm ravels a matrix in memory order and sums the squares of its
    real and of its imaginary parts by two dot products; a row of the stack
    raveled the same way takes the same dot products in `np.vecdot`.
    """
    flat = m.ravel(order="K").reshape(len(m), -1)
    re, im = flat.real, flat.imag
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


def column_major(m: np.ndarray) -> np.ndarray:
    """A copy of a matrix, or of each matrix in a stack, laid out column by column.

    Indexing the columns of a matrix with an index array lays the copy out so,
    and BLAS reads the two layouts through different kernels.
    """
    return np.swapaxes(np.swapaxes(m, -1, -2).copy(), -1, -2)


def _phase_fix_columns(q: CMatrix) -> CMatrix:
    """Rotate each column, of a matrix or of each in a stack, so its largest-modulus entry is real positive.

    Makes eigenbases deterministic up to degenerate clusters.  The phases are
    computed as scalars: array division rounds differently in the last bit.
    """
    columns = np.swapaxes(q, -1, -2).reshape(-1, q.shape[-2])
    peaks = columns[np.arange(len(columns)), np.argmax(np.abs(columns), axis=-1)]
    phases = np.array([np.conj(a) / abs(a) if abs(a) > 0.0 else 1.0 for a in peaks],
                      dtype=complex)
    # a single matrix takes its phases as a vector that broadcasts over its
    # rows: for a 1 x 1 matrix numpy multiplies by another loop than it does
    # for a (1, 1) operand, one that rounds differently in the last bit
    return q * phases.reshape(q.shape[:-2] + (1,) * (q.ndim > 2) + q.shape[-1:])


def herm_eig(m) -> tuple:
    """(eigenvalues, eigenvectors) of a Hermitian matrix, eigenvalues descending, or of each in a (..., n, n) stack.

    Raises ContractError when the input, or a member of the stack, is not
    Hermitian within the relative tolerance.  Column phases are fixed
    deterministically; the basis within a degenerate eigenvalue cluster
    remains implementation-defined.
    """
    m = _matrix_stack(m)
    flat = np.ascontiguousarray(m.reshape((-1,) + m.shape[-2:]))  # `frobs` reads whole members
    if np.any(frobs(flat - dagger(flat)) > CONTRACT_TOL * np.maximum(frobs(flat), 1.0)):
        raise ContractError("herm_eig requires a Hermitian matrix")
    vals, vecs = np.linalg.eigh((m + dagger(m)) / 2.0)
    n = vals.shape[-1]
    # descending, member by member: flat indices into the values and into the
    # vectors' columns, which are gathered into rows and so come out laid out
    # column by column, as indexing the columns of a single matrix lays them out
    order = np.argsort(vals, axis=-1)[..., ::-1].reshape(-1, n) + n * np.arange(vals.size // n)[:, None]
    vals = np.real(vals.reshape(-1)[order]).reshape(vals.shape)
    columns = np.swapaxes(vecs, -1, -2).reshape(-1, n)[order]
    return vals, _phase_fix_columns(np.swapaxes(columns.reshape(vecs.shape), -1, -2))


def _matrix_stack(m) -> np.ndarray:
    """A complex matrix or (..., n, n) stack of them, every entry finite."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2:
        raise ContractError(f"expected a matrix or a stack of matrices, got ndim={a.ndim}")
    require_finite(a)
    return a


def trace_norm(m):
    """Sum of singular values, per matrix of a (..., n, n) stack.

    A stacked SVD gives each matrix the bits it gets alone.
    """
    m = _matrix_stack(m)
    sums = np.linalg.svd(m, compute_uv=False).sum(axis=-1)
    return float(sums) if m.ndim == 2 else sums


def herm_trace_norm(m):
    """`trace_norm` of a Hermitian matrix, or of each in a stack, as the sum of its eigenvalues' moduli.

    Only the lower triangle is read, so the caller guarantees the symmetry.
    """
    m = _matrix_stack(m)
    sums = np.abs(np.linalg.eigvalsh(m)).sum(axis=-1)
    return float(sums) if m.ndim == 2 else sums


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
    vals, q = herm_eig(m)
    floor = -1e-13 * max(abs(vals[0]) if len(vals) else 1.0, 1.0)
    if len(vals) and vals[-1] < floor:
        raise ContractError(f"matrix is not PSD: min eigenvalue {vals[-1]:.3e}")
    clipped = np.clip(vals, 0.0, None)
    return (q * np.sqrt(clipped)) @ dagger(q)


# ---------------------------------------------------------------------------
# Seeded sampling helpers
# ---------------------------------------------------------------------------


# Sample loops draw their samples one at a time, in a fixed order, and
# evaluate them in same-level stacks of max(1, STACK_ENTRIES // D^2): no
# (n, D, D) complex temporary exceeds 64 KiB.  Larger temporaries would each
# be a fresh mapping from the allocator, paid for in page faults on every
# stack.
STACK_ENTRIES = 4096


def stacks(draws, entries):
    """Draws grouped by the size d of their first matrix, as stacks of at most max(1, STACK_ENTRIES // entries).

    `entries` counts the entries one draw's largest temporary holds: an int,
    or a function of d where that temporary grows with the draw.  Each draw
    is a tuple whose first item is a matrix; a stack is yielded as its
    columns, one tuple per item.  The draws are pulled in order, and a stack
    is yielded as soon as it is full, so at most one partial stack per size
    waits; the partial stacks follow at the end, smallest size first.
    """
    pending = {}
    for draw in draws:
        d = len(draw[0])
        stack = pending.setdefault(d, [])
        stack.append(draw)
        if len(stack) >= STACK_ENTRIES // (entries(d) if callable(entries) else entries):
            yield tuple(zip(*pending.pop(d)))
    for d in sorted(pending):
        yield tuple(zip(*pending[d]))


_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def random_complex_matrix(rng: np.random.Generator, rows: int, cols=None) -> CMatrix:
    """(G + iH) / sqrt(2) for standard normal G, H, drawn as one (2, rows, cols) block.

    The block holds the real parts first, so it reads the generator's stream
    exactly as two (rows, cols) draws, G then H, would.
    """
    cols = rows if cols is None else cols
    return gaussian_from_normals(rng.standard_normal((2, rows, cols)))


def gaussian_from_normals(parts: np.ndarray) -> np.ndarray:
    """(G + iH) / sqrt(2) from a (..., 2, rows, cols) block of standard normals, G before H.

    NumPy divides a complex array by the real sqrt(2) as a multiplication by
    1 / sqrt(2), so scaling the parts, which is done in place, gives the same
    bytes as that division.
    """
    parts *= _INV_SQRT2
    out = np.empty(parts.shape[:-3] + parts.shape[-2:], dtype=complex)
    out.real, out.imag = parts[..., 0, :, :], parts[..., 1, :, :]
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
