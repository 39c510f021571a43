"""Transition probabilities, orthogonal families and fidelity comparisons."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkernel as nk
from .errors import CompletenessUnavailableError, ContractError
from .excitations import (ExcitationState, _gauge_phase, _require_shared_state,
                          make_excitation, norm_distance, overlap)
from .funnel import GenericState, LocalOperator, embed_matrix


def transition_probability(a: ExcitationState, b: ExcitationState) -> float:
    """|omega(A* B)|^2, clamped into [0, 1] for reporting."""
    _require_shared_state(a, b)
    p = abs(overlap(a, b)) ** 2
    if p < -1e-12 or p > 1.0 + 1e-12:
        raise ContractError(f"transition probability {p!r} outside the unit interval")
    return float(min(max(p, 0.0), 1.0))


class OrthogonalFamily:
    """Mutually orthogonal excitation states, held in one of three forms.

    Rows: the members' vectors, stacked from hand-built `members` that excite
    one reference state.  Block (the default family): members e_i (x) q_k for
    the columns of a D x D `q`, overlaps kron(1, block), block = q^* q.
    Reflectors (caller generators): compact-WY blocks of one Householder QR
    and the phases diag(R)/|diag(R)| that make it Gram-Schmidt.  `vectors`,
    `members` (`mat` views of the rows) and `overlaps` are derived on first
    read and memoised.
    """

    def __init__(self, members: list = None, overlaps: np.ndarray = None, *,
                 state: GenericState = None, q: np.ndarray = None, reflectors: tuple = None):
        vectors = None
        if members is not None:
            if any(m.state is not members[0].state for m in members[1:]):
                raise ContractError("family members refer to different reference states")
            state = members[0].state if members else None
            vectors = np.array([m.vector for m in members], dtype=complex)
            vectors.setflags(write=False)
        self.state = state
        self.q = q
        self.block = None if q is None else nk.dagger(q) @ q
        self._reflectors = reflectors  # (compact-WY blocks, phases)
        self._size = len(members) if members is not None else state.dim ** 2
        self._vectors = vectors
        self._members = members
        self._overlaps = overlaps

    def coefficients(self, x: np.ndarray) -> np.ndarray:
        """<v_m, x> for every member m of the family, x a doubled-space vector."""
        if self.q is not None:
            # <e_i (x) q_k, x> = (X conj(q))_ik, X the D x D matrix of x
            d = len(self.q)
            return (x.reshape(d, d) @ np.conj(self.q)).ravel()
        if self._reflectors is not None:
            blocks, phases = self._reflectors
            return _reflect(blocks, x) * np.conj(phases)
        return np.conj(self.vectors @ np.conj(x))

    @property
    def vectors(self) -> np.ndarray:
        if self._vectors is None:
            if self.q is not None:
                # row (i, k) is e_i (x) q_k: q^T in each of the D diagonal blocks
                d = len(self.q)
                vectors = np.zeros((d * d, d * d), dtype=complex)
                vectors.reshape(d, d, d, d)[range(d), :, range(d)] = self.q.T
            else:
                # row m is conj(<v_m, e_j>) over the unit vectors e_j
                blocks, phases = self._reflectors
                vectors = np.conj(_reflect(blocks, np.eye(len(phases)))) * phases[:, None]
            vectors.setflags(write=False)
            self._vectors = vectors
        return self._vectors

    @property
    def members(self) -> list:
        if self._members is None:
            d = self.state.dim
            inv_sqrt = self.state.inv_sqrt_lam
            level = self.state.tower.levels
            members = []
            for row in self.vectors:
                mat = row.reshape(d, d)
                op = LocalOperator(level=level, matrix=mat @ inv_sqrt)
                members.append(ExcitationState(state=self.state, op=op, top=op.matrix, mat=mat,
                                               canonical_phase=_gauge_phase(row)))
            self._members = members
        return self._members

    @property
    def overlaps(self) -> np.ndarray:
        if self._overlaps is None:
            if self.block is not None:
                self._overlaps = np.kron(np.eye(len(self.block)), self.block)
            else:
                self._overlaps = np.conj(self.vectors) @ self.vectors.T
        return self._overlaps

    def __len__(self) -> int:
        return self._size

    # the maxima read the block where there is one: kron(eye, block) repeats
    # its entries bit for bit and is exactly 0 outside the diagonal blocks
    def max_off_diagonal(self) -> float:
        if len(self) < 2:
            return 0.0
        off = np.abs(self.block if self.block is not None else self.overlaps)
        np.fill_diagonal(off, 0.0)
        return float(off.max())

    def max_norm_deviation(self) -> float:
        """max_m | ||A_m.omega||^2 - 1 |, read off the overlaps' diagonal."""
        if not len(self):
            return 0.0
        overlaps = self.block if self.block is not None else self.overlaps
        return float(np.max(np.abs(np.diag(overlaps) - 1.0)))


_WY_BLOCK = 32  # Householder reflectors applied together


def _wy_blocks(h, tau) -> list:
    """Reflectors H_k = 1 - tau_k v_k v_k^* of `np.linalg.qr(mode="raw")` as blocks (V, T^*).

    v_k is 1 at k, 0 above, h[k, k+1:] below; H_j...H_{j+b-1} = 1 - V T V^*
    on rows j: (LAPACK's zlarft).  V is copied: products with h's slices are 3x slower.
    """
    blocks = []
    for j in range(0, len(tau), _WY_BLOCK):
        v = np.tril(h[j:j + _WY_BLOCK, j:].T, -1)
        np.fill_diagonal(v, 1.0)
        s = nk.dagger(v) @ v
        t = np.diag(tau[j:j + _WY_BLOCK])
        for i in range(1, len(t)):
            t[:i, i] = -t[i, i] * (t[:i, :i] @ s[:i, i])
        blocks.append((v, nk.dagger(t)))
    return blocks


def _reflect(blocks: list, x: np.ndarray) -> np.ndarray:
    """Q^* x for the Q of compact-WY `blocks`; x a vector or a matrix of columns."""
    y = np.array(x, dtype=complex)
    for v, t_star in blocks:
        # x[j:] -= V (T^* (V^* x[j:])), with no conjugated copy of V
        y[-len(v):] -= v @ (t_star @ np.conj(v.T @ np.conj(y[-len(v):])))
    return y


def _householder_basis(columns: np.ndarray):
    """The raw `np.linalg.qr(columns)` and the phases diag(R)/|diag(R)| that make Q Gram-Schmidt.

    Raises where |R_kk| <= 10 CONTRACT_TOL ||g_k||: g_k is then dependent on the columns before it.
    """
    norms = np.linalg.norm(columns, axis=0)  # its temporaries before the QR's
    h, tau = np.linalg.qr(columns, mode="raw")
    diag = h.diagonal()  # R's diagonal
    dependent = np.flatnonzero(np.abs(diag) <= 10.0 * nk.CONTRACT_TOL * norms)
    if len(dependent):
        raise CompletenessUnavailableError(
            f"generators span only {len(diag) - len(dependent)} of {len(diag)} directions: "
            f"generator {dependent[0]} has |R_kk| <= 10 CONTRACT_TOL ||g_k||")
    return h, tau, diag / np.abs(diag)


def _family_form(state: GenericState, generators) -> dict:
    """The orthonormalized generator vectors A.omega as `OrthogonalFamily` keywords.

    Default: vec(E_ij sqrt(lam)) = e_i (x) sqrt(lam)[j, :], so the family is
    e_i (x) q_k, q_k the orthonormalized rows of sqrt(lam): one reduced QR of
    sqrt(lam)^T, with no conditioning test.  None is needed: |R_kk| >=
    sigma_min(sqrt(lam)) = sqrt(lam_min) >= sqrt(eps_sep) (1.25e-4 at D=64)
    on a separating state, and column k has norm sqrt(lam_kk) <= 1, so
    |R_kk| / ||g_k|| always passes the generators' 1e-9 rule.  Caller
    generators: exactly D^2, streamed into one array and factored by one raw QR.
    """
    d = state.dim
    sqrt_lam = state.sqrt_lam
    if generators is None:
        q, r = np.linalg.qr(sqrt_lam.T)
        return {"q": q * (r.diagonal() / np.abs(r.diagonal()))}
    # the generators are streamed into one array: a list of D^2 matrices
    # would stay live beside the QR's own D^2 x D^2 copies
    generators = iter(generators)
    gen_rows = np.empty((d * d, d * d), dtype=complex)
    count = 0
    for row, g in zip(gen_rows, generators):
        row[:] = (state.embed(g) @ sqrt_lam).ravel()
        count += 1
    if count < d * d or next(generators, None) is not None:
        raise CompletenessUnavailableError(
            f"a complete family needs exactly {d * d} generators, got "
            f"{count if count < d * d else 'more'}")
    h, tau, phases = _householder_basis(gen_rows.T)
    del gen_rows, row  # before the reflectors' copies, not beside them
    return {"reflectors": (_wy_blocks(h, tau), phases)}


def build_complete_family(state: GenericState, generators=None) -> OrthogonalFamily:
    """Orthogonal family of D^2 states, complete on the doubled space.

    With a full-rank reference density the map A -> A.omega is a linear
    bijection onto the doubled space, so orthonormalizing the generator
    vectors yields exactly D^2 members and the completeness sum
    sum_m omega_B . omega_{A_m} equals 1 for every probe.  Defaults to the
    matrix-unit basis of the top algebra in lexicographic order.  The
    members are the Gram-Schmidt orthonormalization of the generators, taken
    from one QR factorisation; anything but D^2 independent generators raises.
    """
    if not state.separating:
        raise CompletenessUnavailableError(
            "complete orthogonal families need a full-rank reference state"
        )
    return OrthogonalFamily(state=state, **_family_form(state, generators))


def completeness_sum(family: OrthogonalFamily, probe: ExcitationState) -> float:
    """sum_m |omega(B* A_m)|^2 over the family, each term clamped into [0, 1]."""
    if not len(family):
        return 0.0
    if family.state is not probe.state:
        raise ContractError("excitations refer to different reference states")
    terms = np.abs(family.coefficients(probe.vector)) ** 2
    if terms.max() > 1.0 + 1e-12:
        raise ContractError(f"transition probability {terms.max()!r} outside the unit interval")
    return float(np.minimum(terms, 1.0).sum())


def uhlmann_fidelity(a: ExcitationState, b: ExcitationState) -> float:
    """(tr |sqrt(rho_A) sqrt(rho_B)|)^2 on the top-algebra densities.

    Computed from the purifications, with no density and no square root
    (Uhlmann's theorem): `M = mat` is the D x D matrix of A.omega, and
    rho_A = M_A M_A^*.  The polar form M_A = sqrt(rho_A) U_A has U_A unitary,
    so M_A^* M_B = U_A^* sqrt(rho_A) sqrt(rho_B) U_B, and the trace norm,
    which ignores the unitaries, is ||M_A^* M_B||_1.
    """
    _require_shared_state(a, b)
    return float(nk.trace_norm(nk.dagger(a.mat) @ b.mat) ** 2)


@dataclass
class FuchsReport:
    transition: float
    distance: float
    bound: float
    slack: float
    pure_equality_residual: float = None

    @property
    def holds(self) -> bool:
        return self.slack >= -1e-10


def fuchs_bound_check(a: ExcitationState, b: ExcitationState) -> FuchsReport:
    """Check omega_A . omega_B <= 1 - (1/4) ||omega_A - omega_B||^2.

    The distance is the top-algebra functional norm.  For a pure reference
    state that norm coincides with the doubled-space vector-state distance
    and the bound is an identity, reported as an equality residual.
    """
    tp = transition_probability(a, b)
    dist = norm_distance(a, b, scope="top")
    bound = 1.0 - 0.25 * dist**2
    report = FuchsReport(transition=tp, distance=dist, bound=bound, slack=bound - tp)
    if not a.state.separating:
        report.pure_equality_residual = abs(bound - tp)
    return report


@dataclass
class ContinuityRow:
    scale: float
    deviation: float


@dataclass
class ContinuityReport:
    rows: list
    envelope_coefficient: float

    def deviations(self):
        return [r.deviation for r in self.rows]


def local_continuity_probe(base: ExcitationState, probe: ExcitationState,
                           direction, scales) -> ContinuityReport:
    """Decay of |omega_{A_m}.omega_B - omega_A.omega_B| along a perturbation.

    A_m = normalize(A + X / m) for m in `scales`; the report carries the
    deviation table and the fitted envelope constant c = max_m m*deviation.
    """
    state = base.state
    tower = state.tower
    if not isinstance(direction, LocalOperator):
        direction = LocalOperator(level=base.level, matrix=direction)
    ref = transition_probability(base, probe)
    rows = []
    coeff = 0.0
    level = max(base.level, direction.level)
    a_mat = embed_matrix(tower, base.level, base.op.matrix, level)
    x_mat = embed_matrix(tower, direction.level, direction.matrix, level)
    for m in scales:
        perturbed = make_excitation(
            state, LocalOperator(level=level, matrix=a_mat + x_mat / float(m)))
        dev = abs(transition_probability(perturbed, probe) - ref)
        rows.append(ContinuityRow(scale=float(m), deviation=dev))
        coeff = max(coeff, dev * float(m))
    return ContinuityReport(rows=rows, envelope_coefficient=coeff)
