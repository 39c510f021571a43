"""Transition probabilities, orthogonal families and fidelity comparisons."""

from __future__ import annotations

import numpy as np

from . import numkernel as nk
from .errors import CompletenessUnavailableError, ContractError
from .excitations import ExcitationState, _gauge_phase, _require_shared_state, overlap
from .funnel import GenericState, LocalOperator


def transition_probability(a: ExcitationState, b: ExcitationState) -> float:
    """|omega(A* B)|^2, clamped to at most 1 for reporting.

    A hand-built ExcitationState need not be normalised, so a probability
    above 1 beyond rounding is rejected.
    """
    _require_shared_state(a, b)
    p = abs(overlap(a, b)) ** 2
    if p > 1.0 + 1e-12:
        raise ContractError(f"transition probability {p!r} exceeds 1")
    return float(min(p, 1.0))


class OrthogonalFamily:
    """Mutually orthogonal excitation states, held in one of three forms.

    Rows: the members' vectors, stacked from hand-built `members` that excite
    one reference state.  Block (the default family): members e_i (x) q_k for
    the columns of a D x D `q`, overlaps kron(1, block), block = q^* q.
    Reflectors (caller generators): the generator rows factored in place by
    a Householder QR, the T^* of its compact-WY blocks, and the phases
    diag(R)/|diag(R)| that make it Gram-Schmidt.  `vectors`,
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
        self._reflectors = reflectors  # (factored generator rows, T^* blocks, phases)
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
            rows, t_blocks, phases = self._reflectors
            return _reflect(rows, t_blocks, x) * np.conj(phases)
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
                rows, t_blocks, phases = self._reflectors
                vectors = np.conj(_reflect(rows, t_blocks, np.eye(len(phases)))) * phases[:, None]
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
                members.append(ExcitationState(self.state, op, _gauge_phase(row), mat))
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


_WY_BLOCK = 64  # Householder reflectors factored and applied together
_UPDATE_ROWS = 128  # trailing rows per block update: its temporaries are this many rows


def _reflect(rows: np.ndarray, t_blocks: list, x: np.ndarray) -> np.ndarray:
    """Q^* x for the Q that `_factor_rows` left in `rows`; x a vector or a matrix of columns."""
    y = np.array(x, dtype=complex)
    for j, t_star in zip(range(0, len(rows), _WY_BLOCK), t_blocks):
        vt = rows[j:j + len(t_star), j:]
        # y[j:] -= V (T^* (V^* y[j:])), with no conjugated copy of V
        y[j:] -= vt.T @ (t_star @ np.conj(vt @ np.conj(y[j:])))
    return y


def _factor_rows(rows: np.ndarray):
    """Householder QR of `rows.T` in place, one panel of _WY_BLOCK rows at a time.

    Returns R's diagonal and the T^* of each block: H_j...H_{j+b-1} = 1 - V T V^*
    on rows j: (LAPACK's zlarft).  rows ends as `np.linalg.qr(rows.T, mode="raw")`
    leaves h, except that each panel's b x b head holds V^T's unit upper
    triangle where R's lower one was: V^T is the view rows[j:j+b, j:].  Each
    panel's raw QR copies only the panel; the trailing rows take the block,
    rows -= rows conj(V) conj(T) V^T, _UPDATE_ROWS at a time, so no
    temporary is larger than one chunk of rows.
    """
    n = len(rows)
    diag = np.empty(n, dtype=complex)
    t_blocks = []
    for j in range(0, n, _WY_BLOCK):
        b = min(_WY_BLOCK, n - j)
        vt = rows[j:j + b, j:]
        vt[:], tau = np.linalg.qr(vt.T, mode="raw")
        head = vt[:, :b]
        diag[j:j + b] = head.diagonal()
        head[:] = np.triu(head, 1) + np.eye(b)
        conj_vt = np.conj(vt)
        s = conj_vt @ vt.T  # V^* V
        t = np.diag(tau)
        for i in range(1, b):
            t[:i, i] = -t[i, i] * (t[:i, :i] @ s[:i, i])
        t_blocks.append(nk.dagger(t))
        for r in range(j + b, n, _UPDATE_ROWS):
            part = rows[r:r + _UPDATE_ROWS, j:]
            part -= ((part @ conj_vt.T) @ np.conj(t)) @ vt
    return diag, t_blocks


def _family_form(state: GenericState, generators) -> dict:
    """The orthonormalized generator vectors A.omega as `OrthogonalFamily` keywords.

    Default: vec(E_ij sqrt(lam)) = e_i (x) sqrt(lam)[j, :], so the family is
    e_i (x) q_k, q_k the orthonormalized rows of sqrt(lam): one reduced QR of
    sqrt(lam)^T, with no conditioning test.  None is needed: |R_kk| >=
    sigma_min(sqrt(lam)) = sqrt(lam_min) >= sqrt(eps_sep) (1.25e-4 at D=64)
    on a separating state, and column k has norm sqrt(lam_kk) <= 1, so
    |R_kk| / ||g_k|| always passes the generators' 1e-9 rule.  Caller
    generators: exactly D^2, streamed into one array and factored in place;
    one with |R_kk| <= 10 CONTRACT_TOL ||g_k|| depends on those before it and raises.
    """
    d = state.dim
    sqrt_lam = state.sqrt_lam
    if generators is None:
        q, r = np.linalg.qr(sqrt_lam.T)
        return {"q": q * (r.diagonal() / np.abs(r.diagonal()))}
    # the generators are streamed into the one array that is factored: a
    # list of D^2 matrices would stay live beside it
    generators = iter(generators)
    rows = np.empty((d * d, d * d), dtype=complex)
    norms = np.empty(d * d)
    count = 0
    for row, g in zip(rows, generators):
        row[:] = state.act(g, sqrt_lam).ravel()
        norms[count] = np.linalg.norm(row)
        count += 1
    if count < d * d or next(generators, None) is not None:
        raise CompletenessUnavailableError(
            f"a complete family needs exactly {d * d} generators, got "
            f"{count if count < d * d else 'more'}")
    diag, t_blocks = _factor_rows(rows)
    dependent = np.flatnonzero(np.abs(diag) <= 10.0 * nk.CONTRACT_TOL * norms)
    if len(dependent):
        raise CompletenessUnavailableError(
            f"generators span only {len(diag) - len(dependent)} of {len(diag)} directions: "
            f"generator {dependent[0]} has |R_kk| <= 10 CONTRACT_TOL ||g_k||")
    return {"reflectors": (rows, t_blocks, diag / np.abs(diag))}


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
