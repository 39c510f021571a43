"""Transition probabilities, orthogonal families and fidelity comparisons."""

from __future__ import annotations

import numpy as np

from . import numkernel as nk
from .errors import CompletenessUnavailableError, ContractError
from .excitations import ExcitationState, _require_shared_state, overlaps
from .funnel import GenericState


def transition_probability(a: ExcitationState, b: ExcitationState) -> float:
    """|omega(A* B)|^2, clamped to at most 1 for reporting.

    A hand-built ExcitationState need not be normalised or finite, so a
    probability above 1 beyond rounding, or NaN, is rejected.
    """
    _require_shared_state(a, b)
    return transition_probabilities(a.mat[None], b.mat[None])[0]


def transition_probabilities(a_mats: np.ndarray, b_mats: np.ndarray) -> list:
    """Stacked `transition_probability` per pair of (n, D, D) mats, each modulus that of a Python complex."""
    probs = [abs(v) ** 2 for v in overlaps(a_mats, b_mats)]
    for p in probs:
        if not p <= 1.0 + 1e-12:
            raise ContractError(f"transition probability {p!r} is not at most 1")
    return [min(p, 1.0) for p in probs]


class OrthogonalFamily:
    """Mutually orthogonal excitation states, held in one of two forms.

    Rows: the members' vectors, stacked from hand-built `members` that excite
    one reference state.  Block (the complete families): members e_i (x) q_k
    for the columns of a D x D `q`, overlaps kron(1, block), block = q^* q.
    `vectors`, `members` (`mat` views of the rows, each deriving its `op` on
    first read) and `overlaps` are derived on first read and memoised.
    """

    def __init__(self, members: list = None, overlaps: np.ndarray = None, *,
                 state: GenericState = None, q: np.ndarray = None):
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
        return np.conj(self.vectors @ np.conj(x))

    @property
    def vectors(self) -> np.ndarray:
        if self._vectors is None:
            # row (i, k) is e_i (x) q_k: q^T in each of the D diagonal blocks
            d = len(self.q)
            vectors = np.zeros((d * d, d * d), dtype=complex)
            vectors.reshape(d, d, d, d)[range(d), :, range(d)] = self.q.T
            vectors.setflags(write=False)
            self._vectors = vectors
        return self._vectors

    @property
    def members(self) -> list:
        if self._members is None:
            d = self.state.dim
            self._members = [ExcitationState(self.state, row.reshape(d, d)) for row in self.vectors]
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


def orthonormal_rows(m: np.ndarray) -> np.ndarray:
    """The Gram-Schmidt orthonormalization of m's rows, first to last, as Q's columns.

    One reduced QR of m^T; rotating column k by diag(R)_k / |diag(R)_k| makes
    R's diagonal positive, which is Gram-Schmidt's convention.
    """
    q, r = np.linalg.qr(m.T)
    return q * (r.diagonal() / np.abs(r.diagonal()))


def build_complete_family(state: GenericState) -> OrthogonalFamily:
    """Orthogonal family of D^2 states, complete on the doubled space.

    With a full-rank reference density the map A -> A.omega is a linear
    bijection onto the doubled space, so orthonormalizing the generator
    vectors of the top algebra's matrix units yields exactly D^2 members and
    the completeness sum sum_m omega_B . omega_{A_m} equals 1 for every
    probe.  vec(E_ij sqrt(lam)) = e_i (x) sqrt(lam)[j, :], so their
    Gram-Schmidt in lexicographic order is e_i (x) q_k, q_k the
    orthonormalized rows of sqrt(lam).  The QR needs no conditioning test:
    |R_kk| >= sigma_min(sqrt(lam)) = sqrt(lam_min) >= sqrt(eps_sep) on a
    separating state.
    """
    if not state.separating:
        raise CompletenessUnavailableError(
            "complete orthogonal families need a full-rank reference state"
        )
    return OrthogonalFamily(state=state, q=orthonormal_rows(state.sqrt_lam))


def completeness_sum(family: OrthogonalFamily, probe: ExcitationState) -> float:
    """sum_m |omega(B* A_m)|^2 over the family, each term clamped into [0, 1]."""
    if not len(family):
        return 0.0
    if family.state is not probe.state:
        raise ContractError("excitations refer to different reference states")
    terms = np.abs(family.coefficients(probe.vector)) ** 2
    top = terms.max()  # NaN if any term is: a hand-built probe need not be finite
    if not top <= 1.0 + 1e-12:
        raise ContractError(f"transition probability {top!r} outside the unit interval")
    return float(np.minimum(terms, 1.0, out=terms).sum())


def uhlmann_fidelity(a: ExcitationState, b: ExcitationState) -> float:
    """(tr |sqrt(rho_A) sqrt(rho_B)|)^2 on the top-algebra densities.

    Computed from the purifications, with no density and no square root
    (Uhlmann's theorem): `M = mat` is the D x D matrix of A.omega, and
    rho_A = M_A M_A^*.  The polar form M_A = sqrt(rho_A) U_A has U_A unitary,
    so M_A^* M_B = U_A^* sqrt(rho_A) sqrt(rho_B) U_B, and the trace norm,
    which ignores the unitaries, is ||M_A^* M_B||_1.
    """
    _require_shared_state(a, b)
    return uhlmann_fidelities(a.mat[None], b.mat[None])[0]


def uhlmann_fidelities(a_mats: np.ndarray, b_mats: np.ndarray) -> list:
    """Stacked `uhlmann_fidelity`: ||M_A^* M_B||_1^2 per pair, each squared as a Python float."""
    return [norm**2 for norm in nk.trace_norm(nk.dagger(a_mats) @ b_mats).tolist()]
