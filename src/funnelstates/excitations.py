"""Excitation states of a reference state and their ray structure.

An excitation is the functional ``C -> omega(A* C A)`` for a normalized
operator ``A`` (``omega(A*A) = 1``).  Normalized operators carry the state
faithfully up to a phase; the canonical gauge below fixes that phase so state
equality can be tested on representatives directly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import numkernel as nk
from .errors import (
    ContractError,
    DegenerateExcitationError,
    DegenerateSuperpositionError,
    GenericityViolationError,
    NotNullCombinationError,
    NotSameRayError,
)
from .funnel import GenericState, LocalOperator

# State equality is tested at 1e-9 in functional norm; the unit vectors of
# equal states must be phase multiples, B.omega = t A.omega, within 1e-7.
STATE_EQ_TOL = 1e-9
OP_RECOVERY_TOL = 1e-7
GAUGE_TOL = 1e-10


@dataclass
class ExcitationState:
    """A normalized excitation, held as its vector, with its canonical ray representative.

    `mat = (A (x) 1) sqrt(lam)` is the D x D matrix whose vectorization is the
    normalized vector A.omega; the library reads an excitation only through
    it, and it exists at any rank of lam.  Built from an operator, the
    excitation also holds `op`, A normalized at the caller's phase, and its
    `level` is A's; built from a vector, it holds only `mat`, its level is the
    top, and `op`, the top-level X = mat lam^{-1/2}, is derived on first read,
    which needs a separating state.  `canonical_mat` is `mat` at the
    deterministic ray phase `canonical_phase`, derived from `mat` on read, so
    equality tests do not depend on the input phase.  `rho`, the reduced
    density on the top algebra, is derived from `mat` on first read.  Both
    `op` and `rho` are memoised.
    """

    state: GenericState
    mat: np.ndarray = field(repr=False)
    # declared fields rather than functools.cached_property: a key added to
    # the instance __dict__ later slows every attribute read on the instance
    _op: LocalOperator = field(repr=False, default=None)
    _rho: np.ndarray = field(repr=False, init=False, default=None)

    @property
    def level(self) -> int:
        return self.state.tower.levels if self._op is None else self._op.level

    @property
    def op(self) -> LocalOperator:
        if self._op is None:
            self._op = LocalOperator._validated(self.level, self.mat @ self.state.inv_sqrt_lam)
        return self._op

    @property
    def rho(self) -> np.ndarray:
        if self._rho is None:
            self._rho = self.mat @ nk.dagger(self.mat)
        return self._rho

    @property
    def vector(self) -> np.ndarray:
        """The doubled-space vector A.omega (row-major vectorization)."""
        return self.mat.ravel()

    @property
    def canonical_phase(self) -> complex:
        return _gauge_phase(self.mat.ravel())

    @property
    def canonical_mat(self) -> np.ndarray:
        """Gauge-fixed representative of the ray, independent of input phase."""
        return self.canonical_phase * self.mat

    def evaluate(self, c) -> complex:
        """omega_A(C) = tr(rho_A C) = <mat, C mat>; a non-finite value breaks the contract."""
        value = complex(np.vdot(self.mat, self.state.act(c, self.mat)))
        if not cmath.isfinite(value):
            raise ContractError(f"expectation is not finite: {value}")
        return value


def _gauge_phase(vector: np.ndarray) -> complex:
    """Phase making the first component of modulus > GAUGE_TOL real positive."""
    x = vector[0]
    if abs(x) <= GAUGE_TOL:
        above = np.abs(vector) > GAUGE_TOL
        first = above.argmax()
        if not above[first]:
            return 1.0 + 0.0j
        x = vector[first]
    return np.conj(x) / abs(x)


def _normalized(state: GenericState, mat: np.ndarray, op: LocalOperator = None) -> ExcitationState:
    """The excitation with ``mat``, and validated ``op`` if given, both scaled by 1 / ||mat||.

    An overflowing norm breaks the contract; a vanishing one means that the
    operator annihilates the reference vector.
    """
    norm_sq = float(np.real(np.vdot(mat, mat)))
    if not math.isfinite(norm_sq):
        raise ContractError(f"excitation norm is not finite: ||A.omega||^2 = {norm_sq}")
    if norm_sq <= 1e-12:
        raise DegenerateExcitationError(
            "operator annihilates the reference vector; excitation undefined"
        )
    scale = 1.0 / np.sqrt(norm_sq)
    return ExcitationState(state, mat * scale,
                           None if op is None else LocalOperator._validated(op.level, op.matrix * scale))


def make_excitation(state: GenericState, op) -> ExcitationState:
    """Normalize an operator into an excitation; a raw matrix is read at the level of its size."""
    if not isinstance(op, LocalOperator):
        op = state.tower.operator(op)
    return _normalized(state, state.act(op, state.sqrt_lam), op)


def _excitation_with_vector(state: GenericState, v: np.ndarray) -> ExcitationState:
    """The top-level excitation holding X.omega = v / ||v|| as given, mat = v.reshape(D, D).

    v must be some X.omega: a mat with a relative component above 1e-10 on
    lam's kernel (never there at full rank) is rejected, never projected.
    """
    exc = _normalized(state, np.asarray(v, dtype=complex).reshape(state.dim, state.dim))
    off = nk.frob(exc.mat @ state.basis[:, state.rank:])  # relative: ||mat|| = 1
    if off > 1e-10:
        raise ContractError(f"vector is not in the GNS space: a fraction {off:.3e} lies off lam's support")
    return exc


def identity_excitation(state: GenericState) -> ExcitationState:
    return make_excitation(state, LocalOperator(level=1, matrix=np.eye(state.tower.dim_at(1), dtype=complex)))


def overlap(a: ExcitationState, b: ExcitationState) -> complex:
    """omega(A* B) = <A.omega, B.omega> for the operators as held, at the caller's phase.

    Not gauge-invariant: rephasing either operator rephases the overlap,
    which is what `lift_phase` reads the phase t from.  A non-finite overlap
    (a hand-built excitation with a NaN or inf entry) breaks the contract.
    """
    _require_shared_state(a, b)
    value = complex(np.vdot(a.vector, b.vector))
    if not cmath.isfinite(value):
        raise ContractError(f"overlap is not finite: {value}")
    return value


def _require_shared_state(a: ExcitationState, b: ExcitationState) -> None:
    if a.state is not b.state:
        raise ContractError("excitations refer to different reference states")


def norm_distance(a: ExcitationState, b: ExcitationState, scope) -> float:
    """Distance between the states, by scope.

    Integer scope n in 1..L restricts both densities to level n
    (`FunnelTower.reduce`); "top" takes the trace norm on the full top
    algebra; "full_bh" the vector-state distance 2 sqrt(1 - |<A.omega,
    B.omega>|^2) on the doubled space.  Any other scope raises.
    """
    _require_shared_state(a, b)
    if scope == "top":
        return nk.herm_trace_norm(a.rho - b.rho)
    if scope == "full_bh":
        # normalize the overlap so the self-distance is exactly zero
        # instead of sqrt(machine-eps) noise
        ov = (abs(np.vdot(a.vector, b.vector)) ** 2
              / (np.vdot(a.vector, a.vector).real * np.vdot(b.vector, b.vector).real))
        return 2.0 * np.sqrt(max(0.0, 1.0 - min(ov, 1.0)))
    tower = a.state.tower  # any other scope must be a level: reduce gates it
    return nk.herm_trace_norm(tower.reduce(a.rho, scope) - tower.reduce(b.rho, scope))


def lift_phase(a: ExcitationState, b: ExcitationState) -> complex:
    """Recover the phase t with B = t A for two equal excitation states."""
    _require_shared_state(a, b)
    dist = norm_distance(a, b, scope="top")
    if dist > STATE_EQ_TOL:
        raise NotSameRayError(
            f"states differ by {dist:.3e} in functional norm", distance=dist
        )
    t = overlap(a, b)
    # for unit vectors ||B.omega - t A.omega||^2 = 1 - |t|^2; A -> A.omega is
    # injective on a separating state, so there the test is B = t A
    if nk.frob(b.mat - t * a.mat) > OP_RECOVERY_TOL:
        raise GenericityViolationError(
            f"equal states but |omega(A*B)| = {abs(t):.12f}: the representatives are not "
            "phase multiples, so the reference state fails the lift property"
        )
    return t


def superpose(c_a: complex, a: ExcitationState, c_b: complex, b: ExcitationState) -> ExcitationState:
    """Top-level excitation of c_a A.omega + c_b B.omega, renormalized, for the canonical vectors.

    So the result is a function of the two states; a different gauge
    convention would produce a different (but ray-equivalent family of)
    superposition.
    """
    _require_shared_state(a, b)
    try:
        return _excitation_with_vector(a.state, c_a * a.canonical_mat + c_b * b.canonical_mat)
    except DegenerateExcitationError as exc:
        raise DegenerateSuperpositionError(
            "superposition interferes destructively to numerical zero"
        ) from exc


# ---------------------------------------------------------------------------
# Null combinations
# ---------------------------------------------------------------------------


def _require_family(excs) -> None:
    """A null combination is taken over one or more excitations of one reference state."""
    if not len(excs):
        raise ContractError("a null combination needs at least one excitation")
    for e in excs[1:]:
        _require_shared_state(excs[0], e)


def functional_norm(coeffs, excs) -> float:
    """Trace norm of sum(c_m omega_{A_m}) as a functional on the top algebra.

    One coefficient per excitation, all of one reference state.  Complex
    coefficients make the sum non-Hermitian, hence the SVD route.
    """
    _require_family(excs)
    if len(coeffs) != len(excs):
        raise ContractError(f"{len(coeffs)} coefficients for {len(excs)} excitations")
    acc = np.zeros_like(excs[0].rho)
    for c, e in zip(coeffs, excs):
        acc = acc + c * e.rho
    return nk.trace_norm(acc)


def find_null_combination(excs):
    """Coefficients annihilating the combined functional, via the Gram matrix.

    The Gram matrix of the excitation functionals (Hilbert-Schmidt pairing of
    their densities) is Hermitian PSD; an eigenvector below the numerical
    kernel threshold, 1e-10 relative, gives the dependency.  Raises when the
    family is independent, and on an empty family or one that spans two
    reference states.
    """
    _require_family(excs)
    m = len(excs)
    gram = np.zeros((m, m), dtype=complex)
    for j in range(m):
        for k in range(m):
            gram[j, k] = np.trace(excs[j].rho @ excs[k].rho)
    eig = nk.herm_eig(gram)
    scale = max(eig.eigenvalues[0], 1.0)
    if eig.eigenvalues[-1] > 1e-10 * scale:
        raise NotNullCombinationError(
            f"family is linearly independent: smallest Gram eigenvalue "
            f"{eig.eigenvalues[-1]:.3e}"
        )
    coeffs = eig.eigenvectors[:, -1]
    return coeffs / np.linalg.norm(coeffs)


def random_excitation(state: GenericState, rng, level: int) -> ExcitationState:
    """Seeded Gaussian excitation at a tower level.

    `dim_at` gates the level before anything is drawn; the draw is a finite
    complex matrix by construction, so it is not validated again.
    """
    d = state.tower.dim_at(level)
    return make_excitation(state, LocalOperator._validated(level, nk.random_complex_matrix(rng, d)))
