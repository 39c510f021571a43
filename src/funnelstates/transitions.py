"""Transition probabilities, orthogonal families and fidelity comparisons."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkernel as nk
from .errors import CompletenessUnavailableError, ContractError
from .excitations import (ExcitationState, _gauge_phase, _require_shared_state,
                          make_excitation, norm_distance, overlap)
from .funnel import GenericState, LocalOperator, embed_matrix, matrix_units


def transition_probability(a: ExcitationState, b: ExcitationState) -> float:
    """|omega(A* B)|^2, clamped into [0, 1] for reporting."""
    _require_shared_state(a, b)
    p = abs(overlap(a, b)) ** 2
    if p < -1e-12 or p > 1.0 + 1e-12:
        raise ContractError(f"transition probability {p!r} outside the unit interval")
    return float(min(max(p, 0.0), 1.0))


class OrthogonalFamily:
    """Mutually orthogonal excitation states with their overlap matrix.

    `vectors` holds the members' doubled-space vectors as read-only rows.  A
    family from `build_complete_family` holds only `state` and these rows;
    its `members` are derived from the rows on first read and memoised, each
    `mat` a view of its row.  A family built by hand from `members` stacks
    their vectors, and checks once that all of them excite one reference
    state.  `overlaps` is taken as given, or else derived on first read and
    memoised: from `block` when the overlap matrix is known to be
    kron(eye, block), a D x D block that the checks on the family read
    directly, and otherwise from `vectors`.
    """

    def __init__(self, members: list = None, overlaps: np.ndarray = None, *,
                 state: GenericState = None, vectors: np.ndarray = None,
                 block: np.ndarray = None):
        if members is not None:
            if any(m.state is not members[0].state for m in members[1:]):
                raise ContractError("family members refer to different reference states")
            state = members[0].state if members else None
            vectors = np.array([m.vector for m in members], dtype=complex)
        vectors.setflags(write=False)
        self.state = state
        self.vectors = vectors
        self._members = members
        self._overlaps = overlaps
        self._block = block

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
            if self._block is not None:
                self._overlaps = np.kron(np.eye(len(self._block)), self._block)
            else:
                self._overlaps = np.conj(self.vectors) @ self.vectors.T
        return self._overlaps

    def __len__(self) -> int:
        return len(self.vectors)

    def _overlap_source(self) -> np.ndarray:
        # kron(eye, block) is exactly 0 outside its diagonal blocks and
        # repeats the block's entries bit for bit, so the block gives the
        # same maxima
        return self._block if self._block is not None else self.overlaps

    def max_off_diagonal(self) -> float:
        if len(self) < 2:
            return 0.0
        off = np.abs(self._overlap_source())
        np.fill_diagonal(off, 0.0)
        return float(off.max())

    def max_norm_deviation(self) -> float:
        """max_m | ||A_m.omega||^2 - 1 |, read off the overlaps' diagonal."""
        if not len(self):
            return 0.0
        return float(np.max(np.abs(np.diag(self._overlap_source()) - 1.0)))


def _householder_basis(columns: np.ndarray):
    """Orthonormal basis of the columns from one Householder QR, or None.

    The columns of Q are rotated so that diag(R) is real positive, which makes
    them the Gram-Schmidt basis of the same columns in the same order.  Returns
    None when some |R_kk| <= 10 CONTRACT_TOL ||g_k||: near that threshold only
    `nk.gram_schmidt` decides which columns count as dependent.
    """
    q, r = np.linalg.qr(columns)
    # only diag(R) is read: R, as large as Q, goes before anything else is
    # allocated, and Q is rotated in place
    diag = r.diagonal().copy()
    del r
    if not np.all(np.abs(diag) > 10.0 * nk.CONTRACT_TOL * np.linalg.norm(columns, axis=0)):
        return None
    q *= diag / np.abs(diag)
    return q


def _family_vectors(state: GenericState, generators):
    """The D^2 orthonormalized generator vectors A.omega as rows, and an overlap block.

    On the default path the overlap matrix is kron(eye, Q^* Q), and only the
    D x D block Q^* Q is returned; for caller-supplied generators the block
    is None, and the family derives the overlaps from the rows if something
    reads them.
    """
    d = state.dim
    sqrt_lam = state.sqrt_lam
    if generators is None:
        # vec(E_ij sqrt(lam)) = e_i (x) sqrt(lam)[j, :], so the family is
        # e_i (x) q_k with q_k the orthonormalized rows of sqrt(lam), and its
        # overlap matrix is block diagonal.
        q = _householder_basis(sqrt_lam.T)
        if q is not None:
            return np.kron(np.eye(d), q.T), nk.dagger(q) @ q
        generators = matrix_units(d)
    # the generators are consumed as a stream into one array: at D=32 a list
    # of D^2 separate matrices or vectors would stay live beside the QR's
    # own 1024^2 copies
    generators = iter(generators)
    gen_rows = np.empty((d * d, d * d), dtype=complex)
    count = 0
    for row, g in zip(gen_rows, generators):
        row[:] = (state.embed(g) @ sqrt_lam).ravel()
        count += 1
    q = _householder_basis(gen_rows.T) if count == d * d else None
    if q is not None:
        del gen_rows  # before the row-major copy of Q, not beside it
        return np.ascontiguousarray(q.T), None
    # generators past the first D^2 only matter to the Gram-Schmidt fallback
    tail = [(state.embed(g) @ sqrt_lam).ravel() for g in generators]
    gs = nk.gram_schmidt(list(gen_rows[:count]) + tail)
    if len(gs.vectors) != d * d:
        raise CompletenessUnavailableError(
            f"generators span only {len(gs.vectors)} of {d * d} directions"
        )
    return np.array(gs.vectors), None


def build_complete_family(state: GenericState, generators=None) -> OrthogonalFamily:
    """Orthogonal family of D^2 states, complete on the doubled space.

    With a full-rank reference density the map A -> A.omega is a linear
    bijection onto the doubled space, so orthonormalizing the generator
    vectors yields exactly D^2 members and the completeness sum
    sum_m omega_B . omega_{A_m} equals 1 for every probe.  Defaults to the
    matrix-unit basis of the top algebra in lexicographic order.  The
    members are the Gram-Schmidt orthonormalization of the generators, taken
    from one QR factorisation whenever that is well conditioned.
    """
    if not state.separating:
        raise CompletenessUnavailableError(
            "complete orthogonal families need a full-rank reference state"
        )
    vectors, block = _family_vectors(state, generators)
    return OrthogonalFamily(state=state, vectors=vectors, block=block)


def completeness_sum(family: OrthogonalFamily, probe: ExcitationState) -> float:
    """sum_m |omega(B* A_m)|^2 over the family, each term clamped into [0, 1]."""
    if not len(family):
        return 0.0
    if family.state is not probe.state:
        raise ContractError("excitations refer to different reference states")
    terms = np.abs(family.vectors @ np.conj(probe.vector)) ** 2
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
