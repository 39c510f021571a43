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
from .excitations import ExcitationState, _excitation_with_vector
from .funnel import GenericState, LocalOperator

TERM_BUDGET = 64
_DROP_TOL = 1e-12
WITNESS_FLOOR = 1e-9
WITNESS_SHIFTS = (1.0, -1.0, 0.5, -0.5, 2.0)


@dataclass
class StateAlgebraElement:
    """A finite linear combination of excitation states, as ``left @ core @ right^*``."""

    state: GenericState
    left: np.ndarray = field(repr=False)
    core: np.ndarray = field(repr=False)
    right: np.ndarray = field(repr=False)
    _terms: tuple = field(repr=False, init=False, default=None)

    @property
    def terms(self) -> tuple:
        """The canonical (coefficient, excitation) list, derived on first read."""
        if self._terms is None:
            self._terms = _canonical_terms(self)
        return self._terms

    # -- kernel access ------------------------------------------------------

    def kernel_apply(self, x: np.ndarray) -> np.ndarray:
        return self.left @ (self.core @ (nk.dagger(self.right) @ x))

    def kernel_norm(self) -> float:
        """Frobenius norm of the kernel: that of the core, as both factors are orthonormal."""
        return nk.frob(self.core)

    def evaluate(self, c) -> complex:
        """psi(C) = tr(Psi (C (x) 1))."""
        acted = self.state.act(c, self.left)
        return complex(np.trace(self.core @ nk.dagger(self.right) @ acted))

    # -- convenience arithmetic ---------------------------------------------

    def __add__(self, other):
        return add(self, other)


def _orthonormal_basis(v: np.ndarray):
    """Split ``v = q @ b`` with orthonormal columns in ``q`` spanning the range of ``v``.

    One thin SVD; singular values at or below ``1e-12 * max(s_0, 1)`` are
    dropped together with their directions.
    """
    u, s, wh = np.linalg.svd(v, full_matrices=False)
    keep = s > _DROP_TOL * np.max(s, initial=1.0)
    return u[:, keep], s[keep, None] * wh[keep]


def _orthonormalised(state, left, core, right) -> StateAlgebraElement:
    """The element ``left @ core @ right^*`` over orthonormal factors.

    This is the only constructor that can widen the factors, so it enforces
    `TERM_BUDGET` on the kernel rank, counted as the width of the wider factor.
    One factor passed for both sides is orthonormalised once, and stays shared.
    """
    ql, bl = _orthonormal_basis(left)
    qr, br = (ql, bl) if right is left else _orthonormal_basis(right)
    rank = max(ql.shape[1], qr.shape[1])
    if rank > TERM_BUDGET:
        raise BudgetError(f"kernel rank {rank} exceeds the budget {TERM_BUDGET}",
                          suggested_budget=rank)
    return StateAlgebraElement(state, ql, bl @ core @ nk.dagger(br), qr)


def excitation_element(exc: ExcitationState) -> StateAlgebraElement:
    v = exc.vector[:, None]
    return StateAlgebraElement(exc.state, v, np.array([[1.0 + 0.0j]]), v)


def element_from_terms(state: GenericState, terms) -> StateAlgebraElement:
    terms = [(complex(c), exc) for c, exc in terms]
    for _, exc in terms:
        if exc.state is not state:
            raise ContractError("terms refer to a different reference state")
    vectors = np.array([exc.vector for _, exc in terms], dtype=complex)
    vectors = vectors.reshape(len(terms), state.doubled_dim).T
    core = np.diag(np.array([c for c, _ in terms], dtype=complex))
    return _orthonormalised(state, vectors, core, vectors)


def _support_form(el: StateAlgebraElement):
    """One orthonormal basis of both supports, and the kernel compressed onto it.

    A factor shared by both sides already is such a basis, and the core the kernel on it.
    """
    if el.left is el.right:
        return el.left, el.core
    basis, _ = _orthonormal_basis(np.hstack([el.left, el.right]))
    bh = nk.dagger(basis)
    return basis, (bh @ el.left) @ el.core @ nk.dagger(bh @ el.right)


def _eigen_excitations(state, basis, part, drop) -> list:
    """(eigenvalue, excitation) for the eigenvectors of Hermitian ``part`` above ``drop``.

    An eigenvector g gives the doubled-space vector basis @ g, a normalized excitation.
    """
    if nk.frob(part) <= drop:
        return []
    vals, vecs = nk.herm_eig(part)
    return [(val, _excitation_with_vector(state, basis @ g))
            for val, g in zip(vals, vecs.T) if abs(val) > drop]


def _canonical_terms(el: StateAlgebraElement) -> tuple:
    """Real terms from the Hermitian part, imaginary ones from the anti-Hermitian part."""
    basis, s_mat = _support_form(el)
    drop = _DROP_TOL * max(nk.frob(s_mat), 1.0)
    herm = _eigen_excitations(el.state, basis, (s_mat + nk.dagger(s_mat)) / 2.0, drop)
    anti = _eigen_excitations(el.state, basis, (s_mat - nk.dagger(s_mat)) / 2.0j, drop)
    return tuple(herm + [(1j * val, exc) for val, exc in anti])


def canonicalize(el: StateAlgebraElement) -> StateAlgebraElement:
    """The element with its canonical term list derived (see `StateAlgebraElement.terms`).

    At most ``2 * rank`` terms result.
    """
    el.terms  # derives and memoises the list
    return el


def add(a: StateAlgebraElement, b: StateAlgebraElement) -> StateAlgebraElement:
    if a.state is not b.state:
        raise ContractError("elements refer to different reference states")
    if a.left is b.left and a.right is b.right:  # the factors stay orthonormal: sum the cores
        return StateAlgebraElement(a.state, a.left, a.core + b.core, a.right)
    (ra, ca), (rb, cb) = a.core.shape, b.core.shape
    core = np.zeros((ra + rb, ca + cb), dtype=complex)
    core[:ra, :ca] = a.core
    core[ra:, ca:] = b.core
    left = np.hstack([a.left, b.left])
    shared = a.left is a.right and b.left is b.right  # one stack, orthonormalised once
    right = left if shared else np.hstack([a.right, b.right])
    return _orthonormalised(a.state, left, core, right)


def scale(c, el: StateAlgebraElement) -> StateAlgebraElement:
    return StateAlgebraElement(el.state, el.left, complex(c) * el.core, el.right)


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
    """Diagonalize a symmetric element into orthogonal excitation states.

    Returns the (weight, excitation) pairs: orthonormal eigenvectors of the
    kernel on its support give mutually orthogonal states, and the
    eigenvalues are the weights, so `element_from_terms` of the pairs gives
    the element back.  Inputs from the convex hull come out with nonnegative
    weights summing to one.
    """
    basis, s_mat = _support_form(el)
    scale_f = max(nk.frob(s_mat), 1.0)
    asym = nk.frob(s_mat - nk.dagger(s_mat))
    if asym > 1e-10 * scale_f:
        raise ContractError(f"element is not symmetric: ||psi - dagger(psi)|| = {asym:.3e}")
    return _eigen_excitations(el.state, basis, (s_mat + nk.dagger(s_mat)) / 2.0,
                              _DROP_TOL * scale_f)


def kernel_distance(a: StateAlgebraElement, b: StateAlgebraElement) -> float:
    """Frobenius distance between the kernels of two elements.

    The difference is formed as an element, so it is subject to `TERM_BUDGET`.
    """
    return add(a, scale(-1.0, b)).kernel_norm()


def bimodule_act(side: str, op, el: StateAlgebraElement) -> StateAlgebraElement:
    """Left action (A x psi)(C) = psi(AC); right action (psi x A)(C) = psi(CA).

    A is a `LocalOperator` or a raw matrix at the level of its size.  On
    kernels the left action is right multiplication by A (x) 1 and vice
    versa; the acted factor is re-orthonormalised.
    """
    if side not in ("left", "right"):
        raise ContractError(f"side must be 'left' or 'right', got {side!r}")
    if not isinstance(op, LocalOperator):
        op = el.state.tower.operator(op)
    if side == "left":
        # K' = K (A (x) 1): columns of the right factor get hit by (A* (x) 1).
        adjoint = LocalOperator(op.level, nk.dagger(op.matrix))
        return _orthonormalised(el.state, el.left, el.core, el.state.act(adjoint, el.right))
    return _orthonormalised(el.state, el.state.act(op, el.left), el.core, el.right)


def dual_state_apply(exc: ExcitationState, el: StateAlgebraElement) -> complex:
    """omega_A(psi) = (omega_A x psi)(1) = <A.omega, Psi A.omega>."""
    if exc.state is not el.state:
        raise ContractError("state and element refer to different references")
    v = exc.vector
    return complex(np.vdot(v, el.kernel_apply(v)))


def gns_inner(a: StateAlgebraElement, b: StateAlgebraElement) -> complex:
    """<a|b> = omega(dagger(a) x b) = <Psi_a omega, Psi_b omega>."""
    if a.state is not b.state:
        raise ContractError("elements refer to different reference states")
    v = a.state.omega_vector
    return complex(np.vdot(a.kernel_apply(v), b.kernel_apply(v)))


def w_isomorphism(el: StateAlgebraElement) -> np.ndarray:
    """Image of the GNS class on the doubled space.

    W |sum c_m omega_{A_m}> = sum c_m omega(A_m^*) A_m.omega; equal to the
    kernel applied to the reference vector.
    """
    omega = el.state.omega_vector
    out = np.zeros_like(omega)
    for c, exc in el.terms:
        v = exc.vector
        out = out + c * np.vdot(v, omega) * v
    return out


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
