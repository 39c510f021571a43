"""The *-algebra spanned by excitation states, in its finite-rank kernel form.

Every element is a finite sum ``sum_m c_m omega_{A_m}``.  Its kernel is the
finite-rank operator ``Psi = sum_m c_m |A_m.omega><A_m.omega|`` on the doubled
space; the functional is recovered as ``psi(C) = tr(Psi (C (x) 1))``.  The
kernel picture is multiplicative, which makes it the canonical normal form:
coefficient lists are not unique, so the zero test and all equality tests
live on the kernel.

An element has one representation, ``Psi = left @ core @ right^*``, where
``left`` and ``right`` have orthonormal columns of doubled-space vectors and
``core`` is small.  Products, scalings and the involution only multiply or
swap the factors, and a sum over the same factor objects adds the cores; other
sums and module actions re-orthonormalise the stacked or acted factors with
one thin SVD per side.  The kernel norm is ``||core||_F``.

Elements come in stacks: the factors and core of a stack carry a leading axis
with one entry per member, the members agree in kernel rank, and every
operation below reads a stack with one numpy call per step.  A single element
is a stack's member; the operations read it as a one-member stack, so a member
of a stack gets the bits it gets alone.  Only the steps that reveal a rank
(which directions an SVD keeps, the term budget, the canonical term lists)
are taken member by member.

Term lists are a view, derived only when something reads ``terms``: the
eigenvectors of the Hermitian and anti-Hermitian parts of the kernel over one
orthonormal basis of its supports, each turned into an excitation.  The list
is memoised on the element; computing it never changes the kernel, so
elements stay pure values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numkernel as nk
from .errors import BudgetError, ContractError, DegenerateExcitationError, FaithfulnessError
from .excitations import ExcitationState, _excitation_with_vector, _excitations_with_vectors, _row_dots
from .funnel import GenericState, LocalOperator

TERM_BUDGET = 64
_DROP_TOL = 1e-12
WITNESS_FLOOR = 1e-9
WITNESS_SHIFTS = (1.0, -1.0, 0.5, -0.5, 2.0)


@dataclass
class StateAlgebraElement:
    """A finite linear combination of excitation states, as ``left @ core @ right^*``, or a stack of them."""

    state: GenericState
    left: np.ndarray = field(repr=False)
    core: np.ndarray = field(repr=False)
    right: np.ndarray = field(repr=False)
    _terms: tuple = field(repr=False, init=False, default=None)

    @property
    def terms(self) -> tuple:
        """The canonical (coefficient, excitation) list, derived on first read; a stack holds one per member."""
        if self._terms is None:
            self._terms = _per_member(self, tuple(_canonical_terms(_as_stack(self))))
        return self._terms

    def __getitem__(self, index) -> StateAlgebraElement:
        """A member of a stack (an integer index) or a stack of some of its members (a slice)."""
        left = self.left[index]
        right = left if self.right is self.left else self.right[index]
        return StateAlgebraElement(self.state, left, self.core[index], right)

    # -- kernel access ------------------------------------------------------

    def kernel_apply(self, x: np.ndarray) -> np.ndarray:
        """Psi x for a vector x; a stack applies each member to x, or to its own row of an (n, N) x."""
        return (self.left @ (self.core @ (nk.dagger(self.right) @ x[..., None])))[..., 0]

    def kernel_norm(self):
        """Frobenius norm of the kernel: that of the core, as both factors are orthonormal; a list for a stack."""
        return _per_member(self, nk.frobs(_as_stack(self).core).tolist())

    def evaluate(self, c) -> complex:
        """psi(C) = tr(Psi (C (x) 1)) of a single element."""
        require_single_element(self)
        acted = self.state.act(c, self.left)
        return complex(np.trace(self.core @ nk.dagger(self.right) @ acted))

    # -- convenience arithmetic ---------------------------------------------

    def __add__(self, other):
        return add(self, other)


def require_single_element(el: StateAlgebraElement) -> None:
    """A ContractError for a stack, where a read takes one element."""
    if el.core.ndim != 2:
        raise ContractError("this read takes a single element: index the members of a stack")


def _as_stack(el: StateAlgebraElement) -> StateAlgebraElement:
    """A stack as it is; a single element as its one-member stack."""
    return el if el.core.ndim == 3 else el[None]


def _per_member(el: StateAlgebraElement, values):
    """Per-member values of a stack as they are; of a single element, its one value."""
    return values if el.core.ndim == 3 else values[0]


def _svd_ranks(v: np.ndarray):
    """The thin SVD of each member of a stack of factors, and how many directions each keeps.

    Singular values at or below ``1e-12 * max(s_0, 1)`` are dropped together
    with their directions.
    """
    u, s, wh = np.linalg.svd(v, full_matrices=False)
    ranks = (s > _DROP_TOL * np.max(s, axis=-1, keepdims=True, initial=1.0)).sum(axis=-1)
    return (u, s, wh), np.reshape(ranks, -1).tolist()


def _split(svd, ranks: list):
    """``v = q @ b`` for each member, with orthonormal columns in ``q`` spanning the range of ``v``.

    ``q`` is laid out column by column, as indexing the kept columns of a
    single ``u`` lays it out, so that BLAS reads it with the same kernels.
    """
    if len(set(ranks)) > 1:
        raise ContractError(f"the members of a stack differ in kernel rank: {ranks}")
    u, s, wh = svd
    rank = ranks[0]
    return nk.column_major(u[..., :rank]), s[..., :rank, None] * wh[..., :rank, :]


def _orthonormalised(state, left, core, right) -> StateAlgebraElement:
    """The stack ``left @ core @ right^*`` over orthonormal factors.

    This is the only constructor that can widen the factors, so it enforces
    `TERM_BUDGET` on each member's kernel rank, counted as the width of the
    wider factor, and raises for the first member above it.  One factor
    passed for both sides is orthonormalised once, and stays shared.
    """
    svd_l, ranks_l = _svd_ranks(left)
    svd_r, ranks_r = (svd_l, ranks_l) if right is left else _svd_ranks(right)
    for rank_l, rank_r in zip(ranks_l, ranks_r):
        rank = max(rank_l, rank_r)
        if rank > TERM_BUDGET:
            raise BudgetError(f"kernel rank {rank} exceeds the budget {TERM_BUDGET}",
                              suggested_budget=rank)
    ql, bl = _split(svd_l, ranks_l)
    qr, br = (ql, bl) if right is left else _split(svd_r, ranks_r)
    return StateAlgebraElement(state, ql, bl @ core @ nk.dagger(br), qr)


def excitation_element(exc: ExcitationState) -> StateAlgebraElement:
    return excitation_elements(exc.state, exc.mat[None])[0]


def excitation_elements(state: GenericState, mats: np.ndarray) -> StateAlgebraElement:
    """Stacked `excitation_element`: the stack of omega_A for (n, D, D) excitation mats A.omega."""
    v = mats.reshape(len(mats), -1)[..., None]
    return StateAlgebraElement(state, v, np.ones((len(mats), 1, 1), dtype=complex), v)


def elements_from_mats(state: GenericState, coeffs, mats) -> StateAlgebraElement:
    """The stack of elements sum_m c_km omega_{A_km}, one per row of the (n, t) coefficients.

    The (n, t, D, D) mats hold the excitations' vectors A_km.omega.  One
    stacked thin SVD orthonormalises every member's vectors, which serve as
    both of its factors.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    n, t = coeffs.shape
    vectors = np.swapaxes(np.asarray(mats, dtype=complex).reshape(n, t, state.doubled_dim), -1, -2)
    core = np.zeros((n, t, t), dtype=complex)
    core[:, range(t), range(t)] = coeffs
    return _orthonormalised(state, vectors, core, vectors)


def element_from_terms(state: GenericState, terms) -> StateAlgebraElement:
    terms = [(complex(c), exc) for c, exc in terms]
    for _, exc in terms:
        if exc.state is not state:
            raise ContractError("terms refer to a different reference state")
    mats = np.array([exc.mat for _, exc in terms], dtype=complex)
    return elements_from_mats(state, [[c for c, _ in terms]], mats[None])[0]


def _support_form(el: StateAlgebraElement):
    """One orthonormal basis of both supports of each member of a stack, and the kernel compressed onto it.

    A factor shared by both sides already is such a basis, and the core the kernel on it.
    """
    if el.left is el.right:
        return el.left, el.core
    basis, _ = _split(*_svd_ranks(np.concatenate([el.left, el.right], axis=-1)))
    bh = nk.dagger(basis)
    return basis, (bh @ el.left) @ el.core @ nk.dagger(bh @ el.right)


def _eigen_excitations(state, basis, parts, drops) -> list:
    """(eigenvalue, excitation) lists for the eigenvectors of Hermitian ``parts`` above ``drops``.

    ``parts`` is a (k, n, r, r) stack over the (n, N, r) ``basis`` of an
    n-member stack, with one drop per part; the lists come part by part, each
    member's after the previous one's.  A part of norm at or below its drop
    has none.  An eigenvector g gives the doubled-space vector basis @ g, a
    normalized excitation.
    """
    vals, vecs = nk.herm_eig(parts)
    # basis @ g for each eigenvector g, one matrix-vector product each, as a single vector takes it
    columns = (basis[..., None, :, :] @ np.swapaxes(vecs, -1, -2)[..., None])[..., 0]
    skip = nk.frobs(parts.reshape((-1,) + parts.shape[-2:])) <= drops.reshape(-1)
    kept = (np.abs(vals) > drops[..., None]) & ~skip.reshape(drops.shape)[..., None]
    excs = iter(_excitations_with_vectors(state, columns[kept]) if kept.any() else ())
    return [[(val, next(excs)) for val, keep in zip(part_vals, part_kept) if keep]
            for part_vals, part_kept in zip(vals.reshape(-1, vals.shape[-1]), kept.reshape(-1, kept.shape[-1]))]


def _canonical_terms(el: StateAlgebraElement) -> list:
    """Real terms from the Hermitian part, imaginary ones from the anti-Hermitian part, per member of a stack."""
    basis, s_mat = _support_form(el)
    drop = _DROP_TOL * np.maximum(nk.frobs(s_mat), 1.0)
    parts = np.stack([(s_mat + nk.dagger(s_mat)) / 2.0, (s_mat - nk.dagger(s_mat)) / 2.0j])
    pairs = _eigen_excitations(el.state, basis, parts, np.stack([drop, drop]))
    n = len(s_mat)
    return [tuple(herm + [(1j * val, exc) for val, exc in anti]) for herm, anti in zip(pairs[:n], pairs[n:])]


def canonicalize(el: StateAlgebraElement) -> StateAlgebraElement:
    """The element with its canonical term list derived (see `StateAlgebraElement.terms`).

    At most ``2 * rank`` terms result.
    """
    el.terms  # derives and memoises the list
    return el


def add(a: StateAlgebraElement, b: StateAlgebraElement) -> StateAlgebraElement:
    """The sum; of two stacks, member by member (over factors other than shared ones, two stacks of one length)."""
    if a.state is not b.state:
        raise ContractError("elements refer to different reference states")
    if a.left is b.left and a.right is b.right:  # the factors stay orthonormal: sum the cores
        return StateAlgebraElement(a.state, a.left, a.core + b.core, a.right)
    (ra, ca), (rb, cb) = a.core.shape[-2:], b.core.shape[-2:]
    core = np.zeros(a.core.shape[:-2] + (ra + rb, ca + cb), dtype=complex)
    core[..., :ra, :ca] = a.core
    core[..., ra:, ca:] = b.core
    left = np.concatenate([a.left, b.left], axis=-1)
    shared = a.left is a.right and b.left is b.right  # one stack, orthonormalised once
    right = left if shared else np.concatenate([a.right, b.right], axis=-1)
    return _orthonormalised(a.state, left, core, right)


def scale(c, el: StateAlgebraElement) -> StateAlgebraElement:
    """c psi for a number c; a stack takes one number for all members or a sequence of one per member."""
    c = complex(c) if np.ndim(c) == 0 else np.asarray(c, dtype=complex)[:, None, None]
    return StateAlgebraElement(el.state, el.left, c * el.core, el.right)


def dagger(el: StateAlgebraElement) -> StateAlgebraElement:
    """Coefficient conjugation; the kernel turns into its adjoint."""
    return StateAlgebraElement(el.state, el.right, nk.dagger(el.core), el.left)


def times(a: StateAlgebraElement, b: StateAlgebraElement) -> StateAlgebraElement:
    """Bilinear product extending omega_A x omega_B (C) = omega(A*B) omega(B* C A).

    The kernels multiply: the product keeps ``left_a`` and ``right_b``, which
    are already orthonormal, around the core ``core_a (right_a^* left_b) core_b``.
    """
    if a.state is not b.state:
        raise ContractError("elements refer to different reference states")
    core = a.core @ (nk.dagger(a.right) @ b.left) @ b.core
    return StateAlgebraElement(a.state, a.left, core, b.right)


def spectral_decompose(el: StateAlgebraElement) -> list:
    """Diagonalize a symmetric element into orthogonal excitation states; a stack, member by member.

    Returns the (weight, excitation) pairs: orthonormal eigenvectors of the
    kernel on its support give mutually orthogonal states, and the
    eigenvalues are the weights, so `element_from_terms` of the pairs gives
    the element back.  Inputs from the convex hull come out with nonnegative
    weights summing to one.  The first member that is not symmetric raises.
    """
    basis, s_mat = _support_form(_as_stack(el))
    scale_f = np.maximum(nk.frobs(s_mat), 1.0)
    for asym, bound in zip(nk.frobs(s_mat - nk.dagger(s_mat)).tolist(), (1e-10 * scale_f).tolist()):
        if asym > bound:
            raise ContractError(f"element is not symmetric: ||psi - dagger(psi)|| = {asym:.3e}")
    pairs = _eigen_excitations(el.state, basis, ((s_mat + nk.dagger(s_mat)) / 2.0)[None],
                               (_DROP_TOL * scale_f)[None])
    return _per_member(el, pairs)


def kernel_distance(a: StateAlgebraElement, b: StateAlgebraElement):
    """Frobenius distance between the kernels of two elements, or per member of two stacks.

    The difference is formed as an element, so it is subject to `TERM_BUDGET`.
    """
    return add(a, scale(-1.0, b)).kernel_norm()


def bimodule_act(side: str, op, el: StateAlgebraElement) -> StateAlgebraElement:
    """Left action (A x psi)(C) = psi(AC); right action (psi x A)(C) = psi(CA).

    A is a `LocalOperator` or a raw matrix at the level of its size; a stack
    also takes an (n, d, d) stack of level matrices, one per member.  On
    kernels the left action is right multiplication by A (x) 1 and vice
    versa; the acted factor is re-orthonormalised.
    """
    if side not in ("left", "right"):
        raise ContractError(f"side must be 'left' or 'right', got {side!r}")
    if isinstance(op, LocalOperator):
        d, m = el.state.tower.dim_at(op.level), op.matrix
    else:
        m = nk._matrix_stack(op)
        d = m.shape[-1]
        el.state.tower.level_of(d)
    if m.shape[-2:] != (d, d):
        raise ContractError(f"matrix shape {m.shape} does not match level dimension {d}")
    if side == "left":
        # K' = K (A (x) 1): columns of the right factor get hit by (A* (x) 1).
        return _orthonormalised(el.state, el.left, el.core, _act(nk.dagger(m), el.right))
    return _orthonormalised(el.state, _act(m, el.left), el.core, el.right)


def _act(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(A (x) 1) x for a factor x, or per member of a stack: x reshaped to (D_n, -1) under A, as `GenericState.act` takes it."""
    return (m @ x.reshape(x.shape[:-2] + (m.shape[-1], -1))).reshape(x.shape)


def dual_state_apply(exc, el: StateAlgebraElement):
    """omega_A(psi) = (omega_A x psi)(1) = <A.omega, Psi A.omega>.

    A stack of elements takes an (n, D, D) stack of excitation mats, one per
    member, and gives one value per member.
    """
    if isinstance(exc, ExcitationState):
        if exc.state is not el.state:
            raise ContractError("state and element refer to different references")
        exc = exc.mat
    v = exc.reshape(exc.shape[:-2] + (-1,))
    return _per_member(el, _row_dots(v[..., None, :], el.kernel_apply(v)[..., None, :]))


def gns_inner(a: StateAlgebraElement, b: StateAlgebraElement):
    """<a|b> = omega(dagger(a) x b) = <Psi_a omega, Psi_b omega>, or per member of two stacks."""
    if a.state is not b.state:
        raise ContractError("elements refer to different reference states")
    v = a.state.omega_vector
    return _per_member(a, _row_dots(a.kernel_apply(v)[..., None, :], b.kernel_apply(v)[..., None, :]))


def w_isomorphism(el: StateAlgebraElement) -> np.ndarray:
    """Image of the GNS class on the doubled space, or of each member's as an (n, N) stack.

    W |sum c_m omega_{A_m}> = sum c_m omega(A_m^*) A_m.omega; equal to the
    kernel applied to the reference vector.  The overlaps with omega are
    taken for every term of the stack at once; each image sums its terms in
    order.
    """
    omega = el.state.omega_vector
    members = el.terms if el.core.ndim == 3 else (el.terms,)
    vectors = np.array([exc.vector for terms in members for _, exc in terms]).reshape(-1, 1, len(omega))
    dots = iter(np.array(_row_dots(vectors, omega[None]) if len(vectors) else []))
    images = []
    for terms in members:
        out = np.zeros_like(omega)
        for c, exc in terms:
            out = out + c * next(dots) * exc.vector
        images.append(out)
    return _per_member(el, np.array(images))


def _chain_value(left: ExcitationState, el: StateAlgebraElement, right: ExcitationState) -> complex:
    """omega(omega_A x psi x omega_B) through the kernel picture."""
    omega = el.state.omega_vector
    va, vb = left.vector, right.vector
    return complex(np.vdot(omega, va) * np.vdot(va, el.kernel_apply(vb)) * np.vdot(vb, omega))


def faithfulness_probe(el: StateAlgebraElement) -> complex:
    """A value omega(omega_A x psi x omega_B) of modulus above WITNESS_FLOOR, by construction.

    Let sigma > 0 be the kernel's largest singular value, ``Psi w = sigma u``.
    The witness is the best over the shifts t in `WITNESS_SHIFTS` of
    A.omega ~ omega + t u and B.omega ~ omega + t w.  Up to the positive
    norms of the two vectors the value is the polynomial

        <omega, omega + t u> <omega + t u, Psi (omega + t w)> <omega + t w, omega>

    of degree at most 4 in real t.  Its outer factors have constant term 1 and
    its middle one has leading coefficient sigma, so it is not identically
    zero and vanishes at no more than four of the five shifts.  A shift whose
    vector vanishes is one of those roots and is skipped.  For a kernel
    orthogonal to omega, t = 1 gives exactly sigma / 4.
    """
    require_single_element(el)
    if el.kernel_norm() <= 1e-8:
        raise ContractError("faithfulness probe requires a nonzero element")
    uu, _, vh = np.linalg.svd(el.core)
    u, w = el.left @ uu[:, 0], el.right @ np.conj(vh[0])
    omega = el.state.omega_vector
    best = 0j
    for t in WITNESS_SHIFTS:
        try:
            left = _excitation_with_vector(el.state, omega + t * u)
            right = _excitation_with_vector(el.state, omega + t * w)
        except DegenerateExcitationError:
            continue
        best = max(best, _chain_value(left, el, right), key=abs)
    if abs(best) > WITNESS_FLOOR:
        return best
    raise FaithfulnessError(
        f"no witness above {WITNESS_FLOOR} found for a nonzero element "
        "(genericity breakdown suspected)"
    )
