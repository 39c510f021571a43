"""The *-algebra spanned by excitation states, in its finite-rank kernel form.

Every element is a finite sum ``sum_m c_m omega_{A_m}``.  Its kernel is the
finite-rank operator ``Psi = sum_m c_m |A_m.omega><A_m.omega|`` on the doubled
space; the functional is recovered as ``psi(C) = tr(Psi (C (x) 1))``.  The
kernel picture is multiplicative, which makes it the canonical normal form:
coefficient lists are not unique, so the zero test and all equality tests
live on the kernel.

Kernels are stored factored as ``V_left @ middle @ V_right^*`` with skinny
``V`` blocks of doubled-space vectors, so products and module actions stay
cheap; ``kernel()`` materializes the dense matrix on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numkernel as nk
from .errors import BudgetError, ContractError, FaithfulnessError
from .excitations import ExcitationState, identity_excitation, make_excitation
from .funnel import GenericState, LocalOperator

KERNEL_ZERO_TOL = 1e-10
TERM_BUDGET = 64
_EIG_DROP_TOL = 1e-12


@dataclass
class StateAlgebraElement:
    """A finite linear combination of excitation states."""

    state: GenericState
    terms: tuple
    _vl: np.ndarray = field(repr=False, default=None)
    _mid: np.ndarray = field(repr=False, default=None)
    _vr: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self._vl is None:
            dd = self.state.doubled_dim
            if self.terms:
                v = np.column_stack([exc.vector for _, exc in self.terms])
                c = np.diag([c for c, _ in self.terms]).astype(complex)
            else:
                v = np.zeros((dd, 0), dtype=complex)
                c = np.zeros((0, 0), dtype=complex)
            self._vl = v
            self._mid = c
            self._vr = v

    # -- kernel access ------------------------------------------------------

    def kernel(self) -> np.ndarray:
        """Materialize the dense kernel on the doubled space."""
        if self._mid.size == 0:
            dd = self.state.doubled_dim
            return np.zeros((dd, dd), dtype=complex)
        return self._vl @ self._mid @ nk.dagger(self._vr)

    def kernel_apply(self, x: np.ndarray) -> np.ndarray:
        if self._mid.size == 0:
            return np.zeros_like(np.asarray(x, dtype=complex))
        return self._vl @ (self._mid @ (nk.dagger(self._vr) @ x))

    def kernel_norm(self) -> float:
        """Frobenius norm of the kernel.

        Computed on the support-projected small matrix (entrywise subtraction
        there is accurate even when the terms cancel to near zero, unlike the
        Gram quadratic form of the factors).
        """
        return _accurate_norm(self._vl, self._mid, self._vr)

    def is_zero(self, tol: float = KERNEL_ZERO_TOL) -> bool:
        return self.kernel_norm() <= tol

    def evaluate(self, c) -> complex:
        """psi(C) = tr(Psi (C (x) 1))."""
        if self._mid.size == 0:
            return 0.0 + 0.0j
        c_top = self.state.embed(c)
        d = self.state.dim
        # (C (x) 1) acts on vec(M) as vec(C M): apply C to the row blocks.
        vl = self._vl.reshape(d, d, -1)
        cvl = np.einsum("ab,bdk->adk", c_top, vl).reshape(d * d, -1)
        return complex(np.trace(self._mid @ nk.dagger(self._vr) @ cvl))

    # -- convenience arithmetic ---------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, scale(-1.0, other))

    def __mul__(self, other):
        if isinstance(other, StateAlgebraElement):
            return times(self, other)
        return scale(other, self)

    def __rmul__(self, scalar):
        return scale(scalar, self)

    def dagger(self):
        return dagger(self)


def _factored(state, vl, mid, vr, terms=()):
    el = StateAlgebraElement(state=state, terms=tuple(terms), _vl=vl, _mid=mid, _vr=vr)
    return el


def excitation_element(exc: ExcitationState, coeff=1.0) -> StateAlgebraElement:
    return StateAlgebraElement(state=exc.state, terms=((complex(coeff), exc),))


def zero_element(state: GenericState) -> StateAlgebraElement:
    return StateAlgebraElement(state=state, terms=())


def element_from_terms(state: GenericState, terms, canonicalize_result: bool = True) -> StateAlgebraElement:
    terms = tuple((complex(c), exc) for c, exc in terms)
    for _, exc in terms:
        if exc.state is not state:
            raise ContractError("terms refer to a different reference state")
    el = StateAlgebraElement(state=state, terms=terms)
    return canonicalize(el) if canonicalize_result else el


def _support_basis(vl, vr):
    cols = [vl[:, j] for j in range(vl.shape[1])] + [vr[:, j] for j in range(vr.shape[1])]
    gs = nk.gram_schmidt(cols, tol=1e-12)
    if not gs.vectors:
        return None
    return np.column_stack(gs.vectors)


def _accurate_norm(vl, mid, vr) -> float:
    if mid.size == 0:
        return 0.0
    if vl.shape[1] + vr.shape[1] <= 64:
        basis = _support_basis(vl, vr)
        if basis is None:
            return 0.0
        s = (nk.dagger(basis) @ vl) @ mid @ nk.dagger(nk.dagger(basis) @ vr)
        return nk.frob(s)
    return nk.frob(vl @ mid @ nk.dagger(vr))


def canonicalize(el: StateAlgebraElement, budget: int = TERM_BUDGET) -> StateAlgebraElement:
    """Re-derive a minimal term list from the kernel.

    The kernel restricted to its support splits into Hermitian and
    anti-Hermitian parts; eigenvectors of either give doubled-space vectors
    v = X.omega whose operators X = unvec(v) lam^{-1/2} are normalized
    excitations, with real (resp. imaginary) coefficients.  At most
    2 * rank terms result; exceeding `budget` raises.
    """
    state = el.state
    if el._mid.size == 0:
        return zero_element(state)
    basis = _support_basis(el._vl, el._vr)
    if basis is None:
        return zero_element(state)
    s_mat = (nk.dagger(basis) @ el._vl) @ el._mid @ nk.dagger(nk.dagger(basis) @ el._vr)
    scale_f = max(nk.frob(s_mat), 1.0)
    herm = (s_mat + nk.dagger(s_mat)) / 2.0
    anti = (s_mat - nk.dagger(s_mat)) / 2.0j
    d = state.dim
    inv_sqrt = state.inv_sqrt_lam
    terms = []
    for part, unit in ((herm, 1.0), (anti, 1.0j)):
        if nk.frob(part) <= _EIG_DROP_TOL * scale_f:
            continue
        eig = nk.herm_eig(part)
        for val, g in zip(eig.eigenvalues, eig.eigenvectors.T):
            if abs(val) <= _EIG_DROP_TOL * scale_f:
                continue
            v = basis @ g
            op = v.reshape(d, d) @ inv_sqrt
            exc = make_excitation(state, LocalOperator(level=state.tower.levels, matrix=op))
            terms.append((unit * val, exc))
    if len(terms) > budget:
        raise BudgetError(
            f"canonical form needs {len(terms)} terms, budget is {budget}",
            suggested_budget=len(terms),
        )
    return StateAlgebraElement(state=state, terms=tuple(terms))


def add(a: StateAlgebraElement, b: StateAlgebraElement) -> StateAlgebraElement:
    if a.state is not b.state:
        raise ContractError("elements refer to different reference states")
    vl = np.hstack([a._vl, b._vl])
    vr = np.hstack([a._vr, b._vr])
    ka, kb = a._mid.shape, b._mid.shape
    mid = np.zeros((ka[0] + kb[0], ka[1] + kb[1]), dtype=complex)
    mid[:ka[0], :ka[1]] = a._mid
    mid[ka[0]:, ka[1]:] = b._mid
    return canonicalize(_factored(a.state, vl, mid, vr))


def scale(c, el: StateAlgebraElement) -> StateAlgebraElement:
    terms = tuple((complex(c) * cm, exc) for cm, exc in el.terms)
    return _factored(el.state, el._vl, complex(c) * el._mid, el._vr, terms=terms)


def dagger(el: StateAlgebraElement) -> StateAlgebraElement:
    """Coefficient conjugation; the kernel turns into its adjoint."""
    terms = tuple((np.conj(c), exc) for c, exc in el.terms)
    return _factored(el.state, el._vr, nk.dagger(el._mid), el._vl, terms=terms)


_PRODUCT_PROBES = 4


def times(a: StateAlgebraElement, b: StateAlgebraElement,
          budget: int = TERM_BUDGET) -> StateAlgebraElement:
    """Bilinear product extending omega_A x omega_B (C) = omega(A*B) omega(B* C A).

    The construction multiplies the factored kernels; multiplicativity of the
    kernel picture is then verified against sequential application of the two
    factor kernels on probe vectors, rather than assumed.
    """
    if a.state is not b.state:
        raise ContractError("elements refer to different reference states")
    state = a.state
    if a._mid.size == 0 or b._mid.size == 0:
        return zero_element(state)
    overlap_block = nk.dagger(a._vr) @ b._vl
    mid = a._mid @ overlap_block @ b._mid
    product = _factored(state, a._vl, mid, b._vr)

    rng = np.random.default_rng(0xC0FFEE)
    dd = state.doubled_dim
    probes = [state.omega_vector] + [
        nk.random_unit_vector(rng, dd) for _ in range(_PRODUCT_PROBES - 1)
    ]
    scale_f = max(product.kernel_norm(), 1.0)
    for x in probes:
        direct = product.kernel_apply(x)
        sequential = a.kernel_apply(b.kernel_apply(x))
        if np.linalg.norm(direct - sequential) > 1e-10 * scale_f:
            raise ContractError("kernel picture failed to be multiplicative")
    return canonicalize(product, budget=budget)


@dataclass
class SpectralDecomposition:
    weights: np.ndarray
    states: list
    is_convex_mixture: bool
    reconstruction_residual: float


def spectral_decompose(el: StateAlgebraElement) -> SpectralDecomposition:
    """Diagonalize a symmetric element into orthogonal excitation states.

    Orthonormal eigenvectors of the kernel on its support give mutually
    orthogonal states; the eigenvalues are the weights.  Inputs from the
    convex hull come out with nonnegative weights summing to one.
    """
    state = el.state
    if el._mid.size == 0:
        return SpectralDecomposition(weights=np.zeros(0), states=[],
                                     is_convex_mixture=False, reconstruction_residual=0.0)
    basis = _support_basis(el._vl, el._vr)
    s_mat = (nk.dagger(basis) @ el._vl) @ el._mid @ nk.dagger(nk.dagger(basis) @ el._vr)
    scale_f = max(nk.frob(s_mat), 1.0)
    asym = nk.frob(s_mat - nk.dagger(s_mat))
    if asym > 1e-10 * scale_f:
        raise ContractError(f"element is not symmetric: ||psi - dagger(psi)|| = {asym:.3e}")
    eig = nk.herm_eig((s_mat + nk.dagger(s_mat)) / 2.0)
    d = state.dim
    inv_sqrt = state.inv_sqrt_lam
    weights = []
    states = []
    for val, g in zip(eig.eigenvalues, eig.eigenvectors.T):
        if abs(val) <= _EIG_DROP_TOL * scale_f:
            continue
        v = basis @ g
        op = v.reshape(d, d) @ inv_sqrt
        states.append(make_excitation(state, LocalOperator(level=state.tower.levels, matrix=op)))
        weights.append(float(val))
    weights = np.array(weights)
    recon = element_from_terms(state, [(w, s) for w, s in zip(weights, states)],
                               canonicalize_result=False)
    residual = _kernel_distance(recon, el)
    is_convex = bool(len(weights) and np.all(weights >= -1e-10)
                     and abs(weights.sum() - 1.0) <= 1e-9)
    return SpectralDecomposition(weights=weights, states=states,
                                 is_convex_mixture=is_convex,
                                 reconstruction_residual=residual)


def _kernel_distance(a: StateAlgebraElement, b: StateAlgebraElement) -> float:
    if a._mid.size == 0:
        return b.kernel_norm()
    if b._mid.size == 0:
        return a.kernel_norm()
    vl = np.hstack([a._vl, b._vl])
    vr = np.hstack([a._vr, b._vr])
    mid = np.block([
        [a._mid, np.zeros((a._mid.shape[0], b._mid.shape[1]))],
        [np.zeros((b._mid.shape[0], a._mid.shape[1])), -b._mid],
    ]).astype(complex)
    return _accurate_norm(vl, mid, vr)


def kernel_distance(a: StateAlgebraElement, b: StateAlgebraElement) -> float:
    """Frobenius distance between the kernels of two elements."""
    if a.state is not b.state:
        raise ContractError("elements refer to different reference states")
    return _kernel_distance(a, b)


def bimodule_act(side: str, op, el: StateAlgebraElement,
                 budget: int = TERM_BUDGET) -> StateAlgebraElement:
    """Left action (A x psi)(C) = psi(AC); right action (psi x A)(C) = psi(CA).

    On kernels the left action is right multiplication by A (x) 1 and vice
    versa; the result is re-expressed as a span of excitation states.
    """
    if side not in ("left", "right"):
        raise ContractError(f"side must be 'left' or 'right', got {side!r}")
    state = el.state
    a_top = state.embed(op)
    if el._mid.size == 0:
        return zero_element(state)
    d = state.dim

    def left_mult(v_block, m):
        resh = v_block.reshape(d, d, -1)
        return np.einsum("ab,bdk->adk", m, resh).reshape(d * d, -1)

    if side == "left":
        # K' = K (A (x) 1): columns of V_right get hit by (A* (x) 1).
        vr = left_mult(el._vr, nk.dagger(a_top))
        out = _factored(state, el._vl, el._mid, vr)
    else:
        vl = left_mult(el._vl, a_top)
        out = _factored(state, vl, el._mid, el._vr)
    return canonicalize(out, budget=budget)


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


@dataclass
class FaithfulnessWitness:
    left: ExcitationState
    right: ExcitationState
    value: complex


def _chain_value(left: ExcitationState, el: StateAlgebraElement, right: ExcitationState) -> complex:
    """omega(omega_A x psi x omega_B) through the kernel picture."""
    omega = el.state.omega_vector
    va, vb = left.vector, right.vector
    return complex(np.vdot(omega, va) * np.vdot(va, el.kernel_apply(vb)) * np.vdot(vb, omega))


def faithfulness_probe(el: StateAlgebraElement, rng=None,
                       threshold: float = 1e-9) -> FaithfulnessWitness:
    """Find states with omega(omega_A x psi x omega_B) away from zero.

    Candidates come from the element's own canonical terms; when all of them
    are annihilated by the reference functional, shifted probes c*1 + A are
    tried, and a few random excitations serve as a last resort.
    """
    if el.kernel_norm() <= 1e-8:
        raise ContractError("faithfulness probe requires a nonzero element")
    state = el.state
    rng = np.random.default_rng(0) if rng is None else rng
    d = state.dim
    eye = np.eye(d, dtype=complex)

    base_ops = [exc.op.matrix.copy() for _, exc in
                sorted(el.terms, key=lambda t: -abs(t[0]))[:6]]
    candidates = []
    for x in base_ops:
        for shift in (0.0, 1.0, 0.5, 1.0j, -1.0):
            try:
                candidates.append(make_excitation(
                    state, LocalOperator(level=state.tower.levels, matrix=shift * eye + x)))
            except Exception:
                continue
    for _ in range(4):
        candidates.append(make_excitation(
            state, LocalOperator(level=state.tower.levels, matrix=nk.random_complex_matrix(rng, d))))

    best = None
    best_val = 0.0
    for left in candidates:
        for right in (left,):
            val = _chain_value(left, el, right)
            if abs(val) > best_val:
                best, best_val = FaithfulnessWitness(left, right, val), abs(val)
        if best_val > 10 * threshold:
            return best
    for left in candidates[:8]:
        for right in candidates[:8]:
            val = _chain_value(left, el, right)
            if abs(val) > best_val:
                best, best_val = FaithfulnessWitness(left, right, val), abs(val)
    if best is not None and best_val > threshold:
        return best
    raise FaithfulnessError(
        f"no witness above {threshold} found for a nonzero element "
        "(genericity breakdown suspected)"
    )


def identity_candidate_counterexample(el: StateAlgebraElement, probes) -> dict:
    """Exhibit a probe on which `el` fails to act as a left unit for the product.

    Returns the worst probe and its deviation ||el x phi - phi||; used to
    document that no budgeted element is a unit of the algebra.
    """
    worst = {"deviation": -1.0, "probe_index": None}
    for idx, phi in enumerate(probes):
        dev = _kernel_distance(times(el, phi), phi)
        if dev > worst["deviation"]:
            worst = {"deviation": dev, "probe_index": idx}
    return worst
