"""Primitive observables: unitary operations and what they let one measure.

A primitive observable is a unitary U together with its action
``omega_A -> omega_{UA}`` on excitation states; its measurable content is the
survival probability ``omega_A . omega_{UA} = |omega_A(U)|^2``.  Proper
isometries do not exist in finite dimension (V*V = 1 forces unitarity), so
partial isometries with matching initial/range ranks stand in for them
throughout; operator limits become finite schedules whose final step
satisfies the target identity exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numkernel as nk
from .errors import ContractError, TuningFailureError
from .excitations import ExcitationState, _excitation_with_vector
from .funnel import GenericState, LocalOperator, is_integer

UNITARITY_TOL = 1e-12
PROJECTION_TOL = 1e-10


def _projection_residual(p: np.ndarray) -> float:
    return max(nk.frob(p - nk.dagger(p)), nk.frob(p @ p - p))


def require_projection(p) -> np.ndarray:
    p = nk.as_cmatrix(p)
    res = _projection_residual(p)
    if res > PROJECTION_TOL:
        raise ContractError(f"matrix is not a projection (residual {res:.3e})")
    return p


def require_unitary(u) -> np.ndarray:
    u = nk.as_cmatrix(u)
    rows, cols = u.shape  # a non-square u fails one of the two identities
    res = max(nk.frob(nk.dagger(u) @ u - np.eye(cols)), nk.frob(u @ nk.dagger(u) - np.eye(rows)))
    if res > UNITARITY_TOL:
        raise ContractError(f"matrix is not unitary (residual {res:.3e})")
    return u


def require_phase(t) -> None:
    if not abs(abs(t) - 1.0) <= 1e-12:  # written so that a NaN t fails too
        raise ContractError(f"t must be a phase, got |t| = {abs(t)}")


@dataclass(frozen=True)
class PrimitiveObservable:
    """A unitary U, understood as the operation Ad U.

    It holds no level: where it acts, `apply_observable` reads the level of its size."""

    unitary: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "unitary", require_unitary(self.unitary))


@dataclass(frozen=True)
class PartialIsometry:
    """V with initial projection F = V*V and range projection E = VV*, both derived from V."""

    matrix: np.ndarray
    initial: np.ndarray = field(init=False)
    range_projection: np.ndarray = field(init=False)

    def __post_init__(self):
        v = nk.as_cmatrix(self.matrix)
        f = nk.dagger(v) @ v
        e = v @ nk.dagger(v)
        for p, name in ((f, "initial"), (e, "range")):
            if _projection_residual(p) > UNITARITY_TOL:
                raise ContractError(f"{name} projection of the candidate is not idempotent")
        if nk.frob(v @ f - v) > UNITARITY_TOL * max(nk.frob(v), 1.0):
            raise ContractError("matrix is not a partial isometry")
        object.__setattr__(self, "matrix", v)
        object.__setattr__(self, "initial", f)
        object.__setattr__(self, "range_projection", e)


def hermitian_parts(u: np.ndarray):
    """The commuting Hermitian pair with U = H1 + i H2."""
    h1 = (u + nk.dagger(u)) / 2.0
    h2 = 1j * (nk.dagger(u) - u) / 2.0
    return h1, h2


def apply_observable(obs: PrimitiveObservable, exc: ExcitationState) -> ExcitationState:
    """omega_A -> omega_{UA}: the top-level excitation of the vector (U (x) 1) A.omega."""
    # validated when the observable was built; the tower reads its level from its size
    u = LocalOperator._validated(exc.state.tower.level_of(len(obs.unitary)), obs.unitary)
    return _excitation_with_vector(exc.state, exc.state.act(u, exc.mat))


def ut_unitary(e_proj, t: complex) -> PrimitiveObservable:
    """U_t = E + t (1 - E) for a projection E and a phase t."""
    e = require_projection(e_proj)
    require_phase(t)
    eye = np.eye(e.shape[0], dtype=complex)
    return PrimitiveObservable(e + t * (eye - e))


def ut_probability(e_proj, t: complex, exc: ExcitationState) -> float:
    """Closed form for omega_A . omega_{U_t A}, E at the level of its size.

    Equals p^2 + q^2 + 2 Re(t) p q with p = omega_A(E), q = omega_A(1-E).
    """
    e = require_projection(e_proj)
    require_phase(t)
    p = float(np.real(exc.evaluate(e)))
    q = 1.0 - p
    return p * p + q * q + 2.0 * float(np.real(t)) * p * q


def _range_basis(p: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the range of an already validated projection."""
    vals, vecs = nk.herm_eig(p)
    return vecs[:, vals > 0.5]


def increasing_projection_schedule(f_proj, steps: int):
    """`steps` nested projections (an integer >= 1, clamped to rank F) climbing to F along its range basis."""
    if not is_integer(steps) or steps < 1:
        raise ContractError(f"steps must be an integer >= 1, got {steps!r}")
    f = require_projection(f_proj)
    basis = _range_basis(f)
    r = basis.shape[1]
    steps = max(1, min(steps, r))
    ranks = sorted({int(np.ceil(r * (m + 1) / steps)) for m in range(steps)})
    schedule = []
    for rank in ranks:
        b = basis[:, :rank]
        schedule.append(b @ nk.dagger(b))
    return schedule


def _validate_schedule(v: PartialIsometry, schedule):
    f = v.initial
    prev = None
    mats = []
    for idx, e in enumerate(schedule):
        e = require_projection(e)
        if nk.frob(f @ e - e) > 1e-9:
            raise ContractError(f"schedule step {idx} is not dominated by the initial projection")
        if prev is not None and nk.frob(e @ prev - prev) > 1e-9:
            raise ContractError(f"schedule step {idx} does not dominate step {idx - 1}")
        prev = e
        mats.append(e)
    if not mats or nk.frob(mats[-1] - f) > 1e-9:
        raise ContractError("schedule must terminate at the initial projection")
    return mats


def dilate_to_unitaries(v: PartialIsometry, schedule) -> list:
    """Unitaries U_m = V E_m + W_m converging to V on its initial subspace.

    W_m is the partial isometry from ran(1 - E_m) onto ran(1 - V E_m V*)
    given by -V on the not-yet-covered part ran(F - E_m) and by a fixed
    pairing W0 of the deterministic bases of ran(1 - F) and ran(1 - E),
    whose ranks match because V*V and VV* share their nonzero spectrum.  So
    every U_m is exactly unitary with (U_m - V) E_m = 0, and
    (U_m - V) F = -2 V (F - E_m) with the projections F - E_m decreasing
    along the schedule to 0: the final U_m restricts to V on ran F.  The
    report measures both residuals in `dilation/on_schedule_exact` and
    `dilation/final_matches`.
    """
    mats = _validate_schedule(v, schedule)
    d = v.matrix.shape[0]
    eye = np.eye(d, dtype=complex)
    f = v.initial
    w0 = _range_basis(eye - v.range_projection) @ nk.dagger(_range_basis(eye - f))
    unitaries = []
    for e_m in mats:
        w_m = -v.matrix @ (f - e_m) + w0
        unitaries.append(PrimitiveObservable(v.matrix @ e_m + w_m))
    return unitaries


def tuned_isometries(v: PartialIsometry, unitaries) -> list:
    """Partial isometries V_m = V U_m* with common range projection E = VV*.

    Each member has range E because V U_m*U_m V* = VV*.  For the unitaries of
    `dilate_to_unitaries` the family converges to E along the schedule and
    reaches it at the final step: there U F = V, so V U* = U F U* = VV* = E.
    The report measures the weak and strong residuals per step in
    `dilation/tuned_envelope_monotone` and `dilation/tuned_final_exact`.
    """
    return [PartialIsometry(v.matrix @ nk.dagger(u.unitary)) for u in unitaries]


def partial_isometry_sup_witness(e_proj, exc: ExcitationState):
    """A partial isometry with range E whose detector value exceeds omega_A(E).

    Documents that the a priori bound for proper isometries has no finite
    counterpart once arbitrary initial subspaces are allowed: the optimum is
    the trace norm of rho_A E, reached by aligning the initial basis with
    the polar angles of rho_A E.
    """
    e = require_projection(e_proj)
    d = exc.state.tower.top_dim
    if e.shape != (d, d):
        raise ContractError(f"E must be top-level, of dimension {d}")
    basis = _range_basis(e)
    p_svd, _, q_svd = np.linalg.svd(exc.rho @ basis, full_matrices=False)
    v = basis @ nk.dagger(p_svd @ q_svd)
    return PartialIsometry(v)


def balanced_unitary(weight_matrix) -> np.ndarray:
    """Unitary with tr(M U) = 0: the cyclic shift q_j -> q_{j-1} in an eigenbasis q of M.

    In that basis M is diagonal and the shift has a zero diagonal, so the
    trace vanishes for every Hermitian M, degenerate or not.  Requires
    dimension >= 2.
    """
    m = nk.as_cmatrix(weight_matrix)
    if m.shape[0] < 2:
        raise ContractError("phase balancing needs dimension >= 2")
    _, q = nk.herm_eig(m)
    return np.roll(q, 1, axis=1) @ nk.dagger(q)


def _tuned_unitary(e: np.ndarray, leak: np.ndarray) -> PrimitiveObservable:
    """The tuned unitary U = E + B for a top-level projection E.

    B acts on the complement 1 - E: on a complement of rank >= 2 it is the
    `balanced_unitary` of the top-level leak density `leak` compressed to the
    complement, so tr(leak B) = 0; rank 1 takes the phase -1, rank 0 nothing.
    Either way (1 - E) U = B and B*B = 1 - E.
    """
    comp_basis = _range_basis(np.eye(e.shape[0], dtype=complex) - e)
    if comp_basis.shape[1] >= 2:
        m_small = nk.dagger(comp_basis) @ leak @ comp_basis
        b = comp_basis @ balanced_unitary(m_small) @ nk.dagger(comp_basis)
    else:
        b = -comp_basis @ nk.dagger(comp_basis)
    return PrimitiveObservable(e + b)


def vacuum_detector(state: GenericState) -> PrimitiveObservable:
    """A unitary silent on the reference state: omega(U) = tr(lam U) = 0.

    Any nonzero response |omega_A(U)|^2 certifies omega_A != omega.  U is the
    `balanced_unitary` of the reference density, silent at any rank of lam.
    """
    return PrimitiveObservable(balanced_unitary(state.lam))


def tune_detector(e_proj, epsilon: float, states) -> PrimitiveObservable:
    """Detector unitary U = E + B with omega_{UA}(1-E) < eps and matched probabilities.

    E is a nonzero top-level projection and the states excite one reference
    state; anything else is a ContractError.  At truncation a unitary can only
    concentrate its action on a subspace of the same rank as E, so the target
    states must already be captured by E within eps; otherwise tuning fails
    with the best achievable figure.  The E block is E itself: it is the
    limit of a tuned isometry family with range E (`tuned_isometries`), which
    in finite dimension reaches E exactly at its final step, as the report
    checks in `dilation/tuned_final_exact`.  B is phase-balanced against the
    mean leak density on the complement.

    Once the states are captured both bounds hold by construction, and the
    report measures them in `detector/leak_bound` and
    `detector/probability_bound`:
    - leak: (1-E)U = B and B*B = 1-E, so omega_{UA}(1-E) = 1 - mass < eps;
    - probability: |omega_A(B)| <= omega_A(1-E) < eps, so the gap is at most
      2 eps mass + eps^2 < 4 eps.
    """
    if not 0 < epsilon < np.inf:
        raise ContractError(f"epsilon must be a finite positive number, got {epsilon!r}")
    if not states:
        raise ContractError("tuning needs at least one target state")
    state = states[0].state
    if any(exc.state is not state for exc in states[1:]):
        raise ContractError("target states refer to different reference states")
    e = require_projection(e_proj)
    d = state.tower.top_dim
    if e.shape != (d, d):
        raise ContractError(f"E must be top-level, of dimension {d}")
    if np.real(np.trace(e)) < 0.5:
        raise ContractError("E must be a nonzero projection")
    e_local = LocalOperator(level=state.tower.levels, matrix=e)

    best = max(1.0 - float(np.real(exc.evaluate(e_local))) for exc in states)
    if best >= epsilon:
        raise TuningFailureError(
            f"states carry leak {best:.3e} outside E; epsilon {epsilon:.3e} unreachable "
            "at the current tower size",
            best_epsilon=best,
        )

    # E is top-level, so 1 - E needs no embedding
    comp = np.eye(d, dtype=complex) - e
    mean_leak = sum(comp @ exc.rho @ comp for exc in states) / len(states)
    return _tuned_unitary(e, mean_leak)


def recover_observable(projections, weights, exc: ExcitationState) -> float:
    """Estimate omega_A(O) for O = sum_m o_m E_m from survival probabilities.

    The E_m are commuting, mutually orthogonal top-level projections.  Each
    gets a tuned unitary U_m = E_m + B_m with B_m balanced against the state's
    own leak density (1-E_m) rho_A (1-E_m), so tr(rho_A B_m) = 0,
    |omega_A(U_m)| = omega_A(E_m), and sum_m o_m sqrt(omega_A . omega_{U_m A})
    is exact.  A rank-one complement admits only the phase -1, which gives
    |omega_A(E_m) - omega_A(1-E_m)|.  Accuracy bounds belong to the caller.
    """
    d = exc.state.tower.top_dim
    mats = [require_projection(p) for p in projections]
    if len(mats) != len(weights):
        raise ContractError("needs one weight per projection")
    if any(m.shape != (d, d) for m in mats):
        raise ContractError(f"projections must be top-level, of dimension {d}")
    eye = np.eye(d, dtype=complex)
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            comm = nk.frob(mats[i] @ mats[j] - mats[j] @ mats[i])
            if comm > 1e-10:
                raise ContractError(f"projections {i} and {j} do not commute ({comm:.3e})")
            if nk.frob(mats[i] @ mats[j]) > 1e-8:
                raise ContractError(f"projections {i} and {j} are not orthogonal")
    total = sum(mats)
    if float(np.linalg.eigvalsh(eye - total)[0]) < -1e-9:
        raise ContractError("projections exceed a resolution of the identity")

    estimate = 0.0
    for o_m, e_m in zip(weights, mats):
        comp = eye - e_m
        final = apply_observable(_tuned_unitary(e_m, comp @ exc.rho @ comp), exc)
        survival = abs(np.vdot(exc.vector, final.vector)) ** 2
        estimate += float(o_m) * float(np.sqrt(survival))
    return estimate


def commensurable(obs1, obs2) -> tuple:
    """The phase t of U2 U1 = t U1 U2 and the relative residual ||U2 U1 - t U1 U2|| / ||U1 U2||.

    The pair is commensurable, Ad(U1 U2) = Ad(U2 U1), when the residual
    vanishes: on a full matrix algebra equality of the adjoint maps is
    exactly phase proportionality of the two products.  Commensurability does
    not require the unitaries themselves to commute (t = 1).  Accepts raw unitary
    matrices, validated by `require_unitary`, or PrimitiveObservables, all of
    one size.
    """
    u1 = obs1.unitary if isinstance(obs1, PrimitiveObservable) else require_unitary(obs1)
    u2 = obs2.unitary if isinstance(obs2, PrimitiveObservable) else require_unitary(obs2)
    if u1.shape != u2.shape:
        raise ContractError("unitaries must act on the same space")
    x = u1 @ u2
    y = u2 @ u1
    z = np.trace(nk.dagger(x) @ y)
    phase = z / abs(z) if abs(z) > 1e-14 else 1.0 + 0.0j
    residual = nk.frob(y - phase * x) / nk.frob(x)
    return complex(phase), float(residual)


def clock_and_shift(dim: int):
    """The standard cyclic pair: diagonal roots of unity and the cyclic shift."""
    idx = np.arange(dim)
    clock = np.diag(np.exp(2j * np.pi * idx / dim))
    shift = np.roll(np.eye(dim, dtype=complex), 1, axis=0)
    return clock, shift
