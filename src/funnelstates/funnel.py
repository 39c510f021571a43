"""Finite matrix-algebra towers in standard (doubled) form.

A tower with factor dimensions ``(d1, k2, ..., kL)`` models a strictly
increasing chain of matrix algebras ``M_{D_1} c M_{D_2} c ... c M_D`` with
``D_n = d1*k2*...*kn``, each level embedded into the next as ``a -> a (x) 1``.
The purification capacity rule ``k_{n+1} >= D_n`` guarantees that the
restriction of any full-rank reference state to level ``n`` extends to a pure
state one level up, which is what the rank-one extension projections below
are built from.

The reference state is a full-rank density matrix ``lam`` on the top level.
Its standard-form vector is ``omega = vec(sqrt(lam))`` on the doubled space
``C^D (x) C^D``, where the top algebra acts from the left, ``A -> A (x) 1``;
then ``<omega, (A (x) 1) omega> = tr(lam A)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ConfigurationError, ContractError, SamplingError, SizingError
from . import numkernel as nk

# Finite surrogate of the separating property: the spectrum of the reference
# density must stay above eps_sep = SEPARATION_SCALE / D.
SEPARATION_SCALE = 1e-6
NEAR_TRACIAL_WEIGHT = 0.1
MAX_REDRAWS = 8
INJECTIVITY_GAP = 1e-6
PHASE_RECOVERY_TOL = 1e-9
PROFILES = ("random_full_rank", "near_tracial", "pure")


@dataclass(frozen=True)
class FunnelTower:
    """Dimension schedule of the tower: per-level tensor factor sizes."""

    factor_dims: tuple

    @property
    def levels(self) -> int:
        return len(self.factor_dims)

    def dim_at(self, level: int) -> int:
        """Algebra dimension D_n at 1-based level `level`."""
        if not 1 <= level <= self.levels:
            raise ConfigurationError(f"level {level} outside 1..{self.levels}")
        return int(math.prod(self.factor_dims[:level]))

    @property
    def top_dim(self) -> int:
        return self.dim_at(self.levels)


def check_factor_dims(dims) -> tuple:
    """The schedule as int tuple: a level or more, factors >= 2, capacity k_{n+1} >= D_n."""
    dims = tuple(int(d) for d in dims)
    if not dims:
        raise ConfigurationError("tower needs at least one level")
    if any(d < 2 for d in dims):
        raise ConfigurationError(f"every factor dimension must be >= 2, got {dims}")
    running = dims[0]
    for i, k in enumerate(dims[1:], start=2):
        if k < running:
            raise CapacityError(
                f"capacity rule violated at level {i}: factor {k} < cumulative dimension {running}"
            )
        running *= k
    return dims


def build_tower(dims) -> FunnelTower:
    """Validate a dimension schedule (`check_factor_dims`) and freeze it into a tower."""
    return FunnelTower(factor_dims=check_factor_dims(dims))


@dataclass(frozen=True)
class LocalOperator:
    """An operator at tower level `level`, implicitly embedded as a (x) 1."""

    level: int
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", nk.as_cmatrix(self.matrix))


def embed_matrix(tower: FunnelTower, level: int, matrix, target_level=None) -> np.ndarray:
    """Embed a level-`level` matrix into a higher level (default: top)."""
    return _embed(tower, level, nk.as_cmatrix(matrix), target_level)


def embed_operator(tower: FunnelTower, op: LocalOperator, target_level=None) -> np.ndarray:
    # the operator's matrix was validated when the operator was built
    return _embed(tower, op.level, op.matrix, target_level)


def _embed(tower: FunnelTower, level: int, m: np.ndarray, target_level) -> np.ndarray:
    """a -> a (x) 1 on a validated complex matrix, bit-equal to np.kron(a, eye)."""
    target = tower.levels if target_level is None else target_level
    d_from = tower.dim_at(level)
    d_to = tower.dim_at(target)
    if m.shape != (d_from, d_from):
        raise ContractError(f"matrix shape {m.shape} does not match level {level} dimension {d_from}")
    if d_to == d_from:
        return m
    if d_to % d_from:
        raise ContractError(f"level {level} does not divide into level {target}")
    if d_to > nk.MAX_TOTAL_DIM:
        raise SizingError(
            f"embedding into dimension {d_to} exceeds the configured maximum dimension "
            f"{nk.MAX_TOTAL_DIM}"
        )
    k = d_to // d_from
    return (m[:, None, :, None] * np.eye(k, dtype=complex)[None, :, None, :]).reshape(d_to, d_to)


@dataclass
class GenericState:
    """Reference state: full-rank spectral data, derived from `lam`, plus its doubled-space vector."""

    tower: FunnelTower
    lam: np.ndarray
    profile: str
    seed: int
    eps_sep: float
    separating: bool
    spectrum: np.ndarray = field(repr=False, init=False)
    basis: np.ndarray = field(repr=False, init=False)

    def __post_init__(self):
        self.lam = nk.as_cmatrix(self.lam)
        eig = nk.herm_eig(self.lam)
        self.spectrum = eig.eigenvalues
        self.basis = eig.eigenvectors
        d = self.dim
        self._sqrt = (self.basis * np.sqrt(np.clip(self.spectrum, 0.0, None))) @ nk.dagger(self.basis)
        if self.separating:
            self._inv_sqrt = (self.basis * (1.0 / np.sqrt(self.spectrum))) @ nk.dagger(self.basis)
        else:
            self._inv_sqrt = None
        self._omega = self._sqrt.reshape(d * d)
        for a in (self.lam, self._sqrt, self._omega):
            a.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.tower.top_dim

    @property
    def doubled_dim(self) -> int:
        return self.dim * self.dim

    @property
    def sqrt_lam(self) -> np.ndarray:
        return self._sqrt

    @property
    def inv_sqrt_lam(self) -> np.ndarray:
        if self._inv_sqrt is None:
            raise ContractError(
                "reference state is rank deficient (pure profile); inverse square root unavailable"
            )
        return self._inv_sqrt

    @property
    def omega_vector(self) -> np.ndarray:
        return self._omega

    def embed(self, op) -> np.ndarray:
        if isinstance(op, LocalOperator):
            return embed_operator(self.tower, op)
        return embed_matrix(self.tower, self.tower.levels, op)

    def expect(self, op) -> complex:
        """omega(A) = tr(lam A) for A given at any level."""
        return complex(np.trace(self.lam @ self.embed(op)))

    def reduced(self, level: int) -> np.ndarray:
        """Restriction of the reference density to the first `level` factors."""
        return nk.partial_trace(self.lam, self.tower.factor_dims, range(level))


def _wishart_density(rng, d: int) -> np.ndarray:
    g = nk.random_complex_matrix(rng, d)
    w = g @ nk.dagger(g)
    return w / np.real(np.trace(w))


def sample_generic_state(tower: FunnelTower, seed: int,
                         profile: str = "random_full_rank") -> GenericState:
    """Draw a reference state of the requested profile.

    random_full_rank draws a normalized Wishart density and redraws, at most
    MAX_REDRAWS times, until the separation floor and the genericity
    self-test pass.  pure gives a rank-one density (separating invariant
    waived, flagged on the state).  near_tracial mixes the tracial state
    with a random density at weight NEAR_TRACIAL_WEIGHT.
    """
    if profile not in PROFILES:
        raise ConfigurationError(f"unknown state profile {profile!r}")
    d = tower.top_dim
    eps = SEPARATION_SCALE / d
    rng = np.random.default_rng(seed)

    if profile == "pure":
        v = nk.random_unit_vector(rng, d)
        lam = np.outer(v, np.conj(v))
        return GenericState(tower=tower, lam=lam, profile=profile, seed=seed,
                            eps_sep=eps, separating=False)

    last_failure = "no draw attempted"
    for _ in range(MAX_REDRAWS):
        r = _wishart_density(rng, d)
        if profile == "near_tracial":
            lam = (1.0 - NEAR_TRACIAL_WEIGHT) * np.eye(d, dtype=complex) / d + NEAR_TRACIAL_WEIGHT * r
        else:
            lam = r
        min_eig = float(np.linalg.eigvalsh(lam)[0])
        if min_eig < eps:
            last_failure = f"spectrum floor {min_eig:.3e} below eps_sep {eps:.3e}"
            continue
        state = GenericState(tower=tower, lam=lam, profile=profile, seed=seed,
                             eps_sep=eps, separating=True)
        report = check_genericity(state, trials=6, rng=rng)
        if report.passed:
            return state
        last_failure = f"genericity self-test failed: {report.failures[:1]}"
    raise SamplingError(
        f"could not sample a generic state for profile {profile!r} after "
        f"{MAX_REDRAWS} draws ({last_failure})"
    )


@dataclass(frozen=True)
class MinimalExtensionProjection:
    """Rank-one projection at level n+1 that compresses level n to omega."""

    level: int
    vector: np.ndarray
    projector: np.ndarray       # inside the level-(n+1) algebra
    schmidt_weights: np.ndarray


def minimal_extension_projection(state: GenericState, n: int) -> MinimalExtensionProjection:
    """Purify the level-n reduction into the (n+1)-th factor.

    Eigenvectors of the reduced density are taken in descending eigenvalue
    order and paired with the first standard basis vectors of the next
    factor; phases are fixed so every Schmidt coefficient is real positive.
    """
    tower = state.tower
    if not 1 <= n < tower.levels:
        raise ContractError(f"extension projection needs 1 <= n < {tower.levels}, got {n}")
    d_n = tower.dim_at(n)
    k_next = tower.factor_dims[n]
    rho = state.reduced(n)
    eig = nk.herm_eig(rho)
    weights = np.clip(eig.eigenvalues, 0.0, None)
    rank = int(np.sum(weights > 1e-14 * max(weights[0], 1e-300)))
    if rank > k_next:
        raise CapacityError(
            f"reduced state at level {n} has rank {rank} > next factor {k_next}"
        )
    psi = np.zeros(d_n * k_next, dtype=complex)
    for i in range(rank):
        e_i = eig.eigenvectors[:, i]
        f_i = np.zeros(k_next, dtype=complex)
        f_i[i] = 1.0
        psi += np.sqrt(weights[i]) * np.kron(e_i, f_i)
    return MinimalExtensionProjection(
        level=n,
        vector=psi,
        projector=np.outer(psi, np.conj(psi)),
        schmidt_weights=weights[:rank],
    )


def matrix_units(dim: int):
    """Matrix-unit basis of M_dim in lexicographic (row, column) order."""
    for i in range(dim):
        for j in range(dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[i, j] = 1.0
            yield e


def relative_commutant_basis(tower: FunnelTower, n: int):
    """Matrix-unit basis of 1_{D_n} (x) M_{k_{n+1}} at level n+1, yielded one by one."""
    if not 1 <= n < tower.levels:
        raise ContractError(f"relative commutant needs 1 <= n < {tower.levels}, got {n}")
    eye = np.eye(tower.dim_at(n), dtype=complex)
    return (LocalOperator(level=n + 1, matrix=np.kron(eye, unit))
            for unit in matrix_units(tower.factor_dims[n]))


def extension_projection_residual(state: GenericState, proj: MinimalExtensionProjection) -> float:
    """max over the matrix-unit basis of N_n of ||E C E - omega(C) E||_F."""
    tower = state.tower
    n = proj.level
    worst = 0.0
    e_local = proj.projector
    for unit in matrix_units(tower.dim_at(n)):
        c_next = _embed(tower, n, unit, n + 1)
        lhs = e_local @ c_next @ e_local
        omega_c = state.expect(LocalOperator(level=n, matrix=unit))
        worst = max(worst, nk.frob(lhs - omega_c * e_local))
    return worst


# ---------------------------------------------------------------------------
# Genericity self-test
# ---------------------------------------------------------------------------


@dataclass
class GenericityCheck:
    check_id: str
    passed: bool
    residual: float
    witness: dict = None


@dataclass
class GenericityReport:
    passed: bool
    checks: list

    @property
    def failures(self):
        return [c for c in self.checks if not c.passed]


def _excitation_density(state: GenericState, top_matrix: np.ndarray) -> np.ndarray:
    """Density of the normalized excitation by a top-level operator."""
    rho = top_matrix @ state.lam @ nk.dagger(top_matrix)
    tr = float(np.real(np.trace(rho)))
    if tr <= 1e-12:
        raise ContractError("operator annihilates the reference state")
    return rho / tr

def _ray_equal(a: np.ndarray, b: np.ndarray) -> bool:
    z = np.trace(nk.dagger(a) @ b)
    if abs(z) <= 1e-9:
        return nk.frob(a) <= 1e-9 and nk.frob(b) <= 1e-9
    t = z / abs(z)
    return nk.frob(b - t * a) <= 1e-9 * max(nk.frob(a), 1.0)


def check_genericity(state: GenericState, trials: int, rng) -> GenericityReport:
    """Operational genericity: separation floor, valid extension projections,
    and injectivity of the state-to-ray lift on random pairs at every level.

    Pairs are drawn half Gaussian, half Haar unitary; unitary pairs are the
    ones that expose tracial-product degeneracies, where conjugation leaves
    the reference density invariant.
    """
    tower = state.tower
    checks = []

    min_eig = float(state.spectrum[-1])
    checks.append(
        GenericityCheck(
            check_id="separating",
            passed=min_eig >= state.eps_sep,
            residual=min_eig,
            witness=None if min_eig >= state.eps_sep else {"min_eig": min_eig, "eps_sep": state.eps_sep},
        )
    )

    for n in range(1, tower.levels):
        try:
            proj = minimal_extension_projection(state, n)
            residual = extension_projection_residual(state, proj)
            checks.append(GenericityCheck(
                check_id=f"extension_projection:{n}", passed=residual <= 1e-10, residual=residual))
        except Exception as exc:  # report, never raise: the report carries failures
            checks.append(GenericityCheck(
                check_id=f"extension_projection:{n}", passed=False, residual=math.inf,
                witness={"error": str(exc)}))

    for level in range(1, tower.levels + 1):
        d = tower.dim_at(level)
        worst_gap = math.inf
        witness = None
        ok = True
        for trial in range(max(trials, 2)):
            kind = "unitary" if trial % 2 else "gaussian"
            if kind == "unitary":
                a = nk.haar_unitary(rng, d)
                b = nk.haar_unitary(rng, d)
            else:
                a = nk.random_complex_matrix(rng, d)
                b = nk.random_complex_matrix(rng, d)
            a_top = embed_matrix(tower, level, a)
            b_top = embed_matrix(tower, level, b)
            try:
                rho_a = _excitation_density(state, a_top)
                rho_b = _excitation_density(state, b_top)
            except ContractError:
                continue
            norm_a = a / np.sqrt(np.real(np.trace(state.lam @ nk.dagger(a_top) @ a_top)))
            norm_b = b / np.sqrt(np.real(np.trace(state.lam @ nk.dagger(b_top) @ b_top)))
            if _ray_equal(norm_a, norm_b):
                continue
            gap = nk.trace_norm(rho_a - rho_b)
            if gap < worst_gap:
                worst_gap = gap
                witness = {"level": level, "kind": kind, "distance": gap}
            if gap <= INJECTIVITY_GAP:
                ok = False
        checks.append(GenericityCheck(
            check_id=f"lift_injectivity:{level}", passed=ok,
            residual=worst_gap if worst_gap < math.inf else 0.0,
            witness=witness if not ok else None))

    # Phase recovery: omega(A^* (tA)) must return t exactly on equal rays.
    level = 1
    d = tower.dim_at(level)
    worst = 0.0
    for theta in (0.0, 0.37, 2.1):
        a = nk.random_complex_matrix(rng, d)
        a_top = embed_matrix(tower, level, a)
        nrm = np.sqrt(np.real(np.trace(state.lam @ nk.dagger(a_top) @ a_top)))
        if nrm <= 1e-12:
            continue
        a_top = a_top / nrm
        t = np.exp(1j * theta)
        recovered = np.trace(state.lam @ nk.dagger(a_top) @ (t * a_top))
        worst = max(worst, abs(recovered - t))
    checks.append(GenericityCheck(
        check_id="phase_recovery", passed=worst <= PHASE_RECOVERY_TOL, residual=worst))

    return GenericityReport(passed=all(c.passed for c in checks), checks=checks)
