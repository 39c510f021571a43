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

from .errors import (CapacityError, ConfigurationError, ContractError, DegenerateExcitationError,
                     SamplingError, SizingError)
from . import numkernel as nk

# Finite surrogate of the separating property: the spectrum of the reference
# density must stay above eps_sep = SEPARATION_SCALE / D.
SEPARATION_SCALE = 1e-6
NEAR_TRACIAL_WEIGHT = 0.1
MAX_REDRAWS = 8
INJECTIVITY_GAP = 1e-6
RAY_EQ_TOL = 1e-9
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
    """Reference state: spectral data, doubled-space vector and `separating`, derived from `lam`.

    `separating` means `spectrum[-1] >= eps_sep`; only then is `inv_sqrt_lam` available.
    """

    tower: FunnelTower
    lam: np.ndarray
    profile: str
    seed: int
    eps_sep: float
    separating: bool = field(init=False)
    spectrum: np.ndarray = field(repr=False, init=False)
    basis: np.ndarray = field(repr=False, init=False)

    def __post_init__(self):
        self.lam = nk.as_cmatrix(self.lam)
        eig = nk.herm_eig(self.lam)
        self.spectrum = eig.eigenvalues
        self.basis = eig.eigenvectors
        self.separating = bool(self.spectrum[-1] >= self.eps_sep)
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
                f"reference state is not separating: spectrum floor {self.spectrum[-1]:.3e} "
                f"below eps_sep {self.eps_sep:.3e}; inverse square root unavailable"
            )
        return self._inv_sqrt

    @property
    def omega_vector(self) -> np.ndarray:
        return self._omega

    def embed(self, op) -> np.ndarray:
        if isinstance(op, LocalOperator):
            # the operator's matrix was validated when the operator was built
            return _embed(self.tower, op.level, op.matrix, None)
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
    self-test pass.  pure gives a rank-one density, which is not
    separating (the invariant is waived).  near_tracial mixes the tracial state
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
        return GenericState(tower=tower, lam=lam, profile=profile, seed=seed, eps_sep=eps)

    last_failure = "no draw attempted"
    for _ in range(MAX_REDRAWS):
        r = _wishart_density(rng, d)
        if profile == "near_tracial":
            lam = (1.0 - NEAR_TRACIAL_WEIGHT) * np.eye(d, dtype=complex) / d + NEAR_TRACIAL_WEIGHT * r
        else:
            lam = r
        state = GenericState(tower=tower, lam=lam, profile=profile, seed=seed, eps_sep=eps)
        if not state.separating:
            last_failure = f"spectrum floor {state.spectrum[-1]:.3e} below eps_sep {eps:.3e}"
            continue
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


def check_genericity(state: GenericState, trials: int, rng) -> GenericityReport:
    """Operational genericity, checked on the excitation model it certifies.

    `separating`: the spectrum floor is at least eps_sep.  `extension_projection:n`
    (n < L): the rank-one projection above level n compresses every level-n
    matrix unit C to omega(C) E.  `lift_injectivity:n` (n <= L): pairs of
    level-n operators, half Gaussian, half Haar unitary (these expose tracial
    products, whose density conjugation leaves invariant), built with
    `make_excitation`, are more than INJECTIVITY_GAP apart unless one ray
    (canonical matrices equal within RAY_EQ_TOL, relative).  Phase recovery is
    not re-proved: once omega(A*A) = 1, omega(A*(tA)) = t by linearity; the
    `lift` suite checks it operationally through `lift_phase`.
    """
    # excitations imports this module, so its constructors are bound at call time
    from .excitations import make_excitation, norm_distance

    tower = state.tower
    floor = float(state.spectrum[-1])
    witness = None if state.separating else {"min_eig": floor, "eps_sep": state.eps_sep}
    checks = [GenericityCheck("separating", state.separating, floor, witness)]

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
        worst, worst_kind = math.inf, None
        for trial in range(max(trials, 2)):
            kind, draw = (("unitary", nk.haar_unitary) if trial % 2
                          else ("gaussian", nk.random_complex_matrix))
            a, b = draw(rng, d), draw(rng, d)
            try:
                exc_a = make_excitation(state, LocalOperator(level, a))
                exc_b = make_excitation(state, LocalOperator(level, b))
            except DegenerateExcitationError:
                continue
            ca, cb = exc_a.canonical_matrix, exc_b.canonical_matrix
            if nk.frob(ca - cb) <= RAY_EQ_TOL * nk.frob(ca):
                continue
            gap = norm_distance(exc_a, exc_b, scope="top")
            if gap < worst:
                worst, worst_kind = gap, kind
        ok = worst > INJECTIVITY_GAP
        checks.append(GenericityCheck(
            check_id=f"lift_injectivity:{level}", passed=ok,
            residual=worst if worst < math.inf else 0.0,
            witness=None if ok else {"level": level, "kind": worst_kind, "distance": worst}))

    return GenericityReport(passed=all(c.passed for c in checks), checks=checks)
