"""Finite matrix-algebra towers in standard (doubled) form.

A tower with factor dimensions ``(d1, k2, ..., kL)`` models a strictly
increasing chain of matrix algebras ``M_{D_1} c M_{D_2} c ... c M_D`` with
``D_n = d1*k2*...*kn``, each level embedded into the next as ``a -> a (x) 1``.
The purification capacity rule ``k_{n+1} >= D_n`` guarantees that the
restriction of any full-rank reference state to level ``n`` extends to a pure
state one level up, which is what the rank-one extension projections below
are built from.

The reference state is a density matrix ``lam`` on the top level, supported on
its eigenvectors with eigenvalues above ``1e-12 lam_max``.  Its standard-form
vector is ``omega = vec(sqrt(lam))``, the root taken on that support, on the
doubled space ``C^D (x) C^D``, where the top algebra acts from the left,
``A -> A (x) 1``; then ``<omega, (A (x) 1) omega> = tr(lam A)``.  The GNS space
of the vectors ``(A (x) 1) omega`` holds those whose D x D matrix vanishes on
``lam``'s kernel: all of the doubled space when ``lam`` has full rank.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (CapacityError, ConfigurationError, ContractError, DegenerateExcitationError,
                     SamplingError)
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
    # D_1, ..., D_L, computed once: dim_at is read on every excitation
    _dims: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_dims", tuple(
            int(math.prod(self.factor_dims[:n])) for n in range(1, len(self.factor_dims) + 1)))

    @property
    def levels(self) -> int:
        return len(self.factor_dims)

    def dim_at(self, level: int) -> int:
        """Algebra dimension D_n at 1-based level `level`."""
        return self._dims[require_level(level, self.levels) - 1]

    @property
    def top_dim(self) -> int:
        return self._dims[-1]

    def level_of(self, dim: int) -> int:
        """The level n with D_n = dim, unique since every factor is >= 2; any other size raises."""
        try:
            return self._dims.index(dim) + 1
        except ValueError:
            raise ContractError(f"size {dim} is not a level dimension {self._dims}") from None

    def operator(self, m) -> "LocalOperator":
        """A raw matrix as the `LocalOperator` at the level of its size."""
        m = nk.as_cmatrix(m)
        return LocalOperator._validated(self.level_of(len(m)), m)

    def reduce(self, m: np.ndarray, level: int) -> np.ndarray:
        """Restriction of a top-level matrix to level n: the trace over the factors above n.

        With k = D / D_n, m read as (D_n, k, D_n, k) is traced over its two k axes.
        """
        d_n, d = self.dim_at(level), self.top_dim
        m = np.asarray(m)
        if m.shape != (d, d):
            raise ContractError(f"matrix shape {m.shape} is not the top-level shape {(d, d)}")
        k = d // d_n
        return np.trace(m.reshape(d_n, k, d_n, k), axis1=1, axis2=3)


def is_integer(x) -> bool:
    """An integral number that is not a bool: 2.9 and True are not factor dimensions or seeds."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def require_level(level, top=math.inf):
    """`level` itself, if it is an integer in 1..top that is not a bool (True is not level 1)."""
    # exact int first: the ABC test in is_integer costs a microsecond, and dim_at is hot
    if (type(level) is int or is_integer(level)) and 1 <= level <= top:
        return level
    bound = "" if top == math.inf else f" and <= {top}"
    raise ContractError(f"level must be an integer >= 1{bound}, got {level!r}")


def check_factor_dims(dims) -> tuple:
    """The schedule as int tuple: a level or more, integer factors >= 2, capacity k_{n+1} >= D_n."""
    if isinstance(dims, (str, bytes)) or not hasattr(dims, "__iter__"):
        raise ConfigurationError(f"the factor dimensions must be a list of integers, got {dims!r}")
    dims = tuple(dims)
    if not all(is_integer(d) for d in dims):
        raise ConfigurationError(f"every factor dimension must be an integer, got {dims}")
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
    """An operator at tower level `level` (an integer >= 1), implicitly embedded as a (x) 1."""

    level: int
    matrix: np.ndarray

    def __post_init__(self):
        require_level(self.level)
        object.__setattr__(self, "matrix", nk.as_cmatrix(self.matrix))

    @classmethod
    def _validated(cls, level: int, matrix: np.ndarray) -> "LocalOperator":
        """An operator around a valid level and a matrix already known to be a finite complex matrix."""
        op = object.__new__(cls)
        object.__setattr__(op, "level", level)
        object.__setattr__(op, "matrix", matrix)
        return op


@dataclass
class GenericState:
    """Reference state: everything but `tower`, `lam` and `seed` is derived from `lam`.

    `lam` must be a density of the tower: top-level shape, trace 1 and no
    eigenvalue below -CONTRACT_TOL lam_max; anything else is a ContractError.
    `sqrt_lam` is built on the `rank` eigenpairs above 1e-12 lam_max, so the
    doubled-space vector `omega_vector = vec(sqrt_lam)` has no component off the
    support.  The separation floor is `eps_sep = SEPARATION_SCALE / D`; only when
    `spectrum[-1] >= eps_sep` (`separating`) is `inv_sqrt_lam` available.
    """

    tower: FunnelTower
    lam: np.ndarray
    seed: int
    eps_sep: float = field(init=False)
    separating: bool = field(init=False)
    rank: int = field(init=False)
    spectrum: np.ndarray = field(repr=False, init=False)
    basis: np.ndarray = field(repr=False, init=False)
    sqrt_lam: np.ndarray = field(repr=False, init=False)
    omega_vector: np.ndarray = field(repr=False, init=False)

    def __post_init__(self):
        self.lam = nk.as_cmatrix(self.lam)
        d = self.dim
        if self.lam.shape != (d, d):
            raise ContractError(f"density shape {self.lam.shape} is not the top-level shape {(d, d)}")
        trace = np.trace(self.lam)
        if abs(trace - 1.0) > nk.CONTRACT_TOL:
            raise ContractError(f"density trace {trace:.6g} is not 1")
        eig = nk.herm_eig(self.lam)
        self.spectrum = eig.eigenvalues
        self.basis = eig.eigenvectors
        if self.spectrum[-1] < -nk.CONTRACT_TOL * self.spectrum[0]:
            raise ContractError(f"density is not positive: least eigenvalue {self.spectrum[-1]:.3e}")
        self.eps_sep = SEPARATION_SCALE / d
        self.separating = bool(self.spectrum[-1] >= self.eps_sep)
        # rounding-level eigenvalues would put omega 1e-8 off its own support
        self.rank = r = int(np.sum(self.spectrum > 1e-12 * self.spectrum[0]))
        self.sqrt_lam = (self.basis[:, :r] * np.sqrt(self.spectrum[:r])) @ nk.dagger(self.basis[:, :r])
        self._inv_sqrt = None  # derived on first read: a verify round reads none
        self.omega_vector = self.sqrt_lam.reshape(d * d)
        for a in (self.lam, self.sqrt_lam, self.omega_vector):
            a.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.tower.top_dim

    @property
    def doubled_dim(self) -> int:
        return self.dim * self.dim

    @property
    def inv_sqrt_lam(self) -> np.ndarray:
        if not self.separating:
            raise ContractError(
                f"reference state is not separating: spectrum floor {self.spectrum[-1]:.3e} "
                f"below eps_sep {self.eps_sep:.3e}; inverse square root unavailable"
            )
        if self._inv_sqrt is None:
            self._inv_sqrt = (self.basis * (1.0 / np.sqrt(self.spectrum))) @ nk.dagger(self.basis)
        return self._inv_sqrt

    def act(self, op, x: np.ndarray) -> np.ndarray:
        """(A (x) 1) x, A a `LocalOperator` at level n or a raw matrix, at the level of its size.

        x is any array whose leading axis is D_m for a level m >= n: a level-m
        matrix, or a (D^2, r) block of doubled-space columns; a leading axis
        that D_n does not divide is a ContractError.  A acts on x reshaped to
        (D_n, -1), with no embedding: D_n D_m work per column, not D_m^2.
        """
        if not isinstance(op, LocalOperator):
            op = self.tower.operator(op)
        level, m = op.level, op.matrix  # validated when the operator was built
        d = self.tower.dim_at(level)
        # the reshape reads only d: a mislabelled matrix would act at the wrong level
        if m.shape != (d, d):
            raise ContractError(f"matrix shape {m.shape} does not match level {level} dimension {d}")
        # a leading axis D_n does not divide is read across rows: a 4 x 4 x at D_n = 16 as one column
        if len(x) % d:
            raise ContractError(
                f"leading axis of shape {x.shape} is not a multiple of level {level} dimension {d}")
        return (m @ x.reshape(d, -1)).reshape(x.shape)

    def expect(self, op) -> complex:
        """omega(A) = tr(lam A) = <sqrt(lam), A sqrt(lam)> for A given at any level."""
        return complex(np.vdot(self.sqrt_lam, self.act(op, self.sqrt_lam)))

    def reduced(self, level: int) -> np.ndarray:
        """The reference density restricted to level n, the D_n x D_n matrix `tower.reduce(lam, n)`."""
        return self.tower.reduce(self.lam, level)


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
    rng = np.random.default_rng(seed)

    if profile == "pure":
        v = nk.random_unit_vector(rng, d)
        lam = np.outer(v, np.conj(v))
        return GenericState(tower=tower, lam=lam, seed=seed)

    last_failure = "no draw attempted"
    for _ in range(MAX_REDRAWS):
        r = _wishart_density(rng, d)
        if profile == "near_tracial":
            lam = (1.0 - NEAR_TRACIAL_WEIGHT) * np.eye(d, dtype=complex) / d + NEAR_TRACIAL_WEIGHT * r
        else:
            lam = r
        state = GenericState(tower=tower, lam=lam, seed=seed)
        if not state.separating:
            last_failure = f"spectrum floor {state.spectrum[-1]:.3e} below eps_sep {state.eps_sep:.3e}"
            continue
        failures = check_genericity(state, trials=6, rng=rng)
        if not failures:
            return state
        last_failure = f"genericity self-test failed: {failures}"
    raise SamplingError(
        f"could not sample a generic state for profile {profile!r} after "
        f"{MAX_REDRAWS} draws ({last_failure})"
    )


def minimal_extension_projection(state: GenericState, n: int) -> np.ndarray:
    """psi_n, the unit D_{n+1} vector of the rank-one projection E_n = |psi_n><psi_n| above level n.

    E_n compresses level n to omega.  psi_n purifies the level-n reduction
    into the (n+1)-th factor: eigenvectors of the reduced density, in
    descending eigenvalue order, are paired with the first standard basis
    vectors of the next factor, with every Schmidt coefficient real positive.
    """
    tower = state.tower
    require_level(n, tower.levels - 1)
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
    # psi = sum_i sqrt(w_i) e_i (x) f_i: column i of the d_n x k_next matrix of psi
    psi = np.zeros((d_n, k_next), dtype=complex)
    psi[:, :rank] = eig.eigenvectors[:, :rank] * np.sqrt(weights[:rank])
    return psi.ravel()


def matrix_units(dim: int):
    """Matrix-unit basis of M_dim in lexicographic (row, column) order."""
    for i in range(dim):
        for j in range(dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[i, j] = 1.0
            yield e


def relative_commutant_basis(tower: FunnelTower, n: int):
    """Matrix-unit basis of 1_{D_n} (x) M_{k_{n+1}} at level n+1, yielded one by one."""
    require_level(n, tower.levels - 1)
    eye = np.eye(tower.dim_at(n), dtype=complex)
    return (LocalOperator(level=n + 1, matrix=np.kron(eye, unit))
            for unit in matrix_units(tower.factor_dims[n]))


def extension_projection_residual(state: GenericState, psi: np.ndarray) -> float:
    """max over the matrix units C of level n of ||E C E - omega(C) E||_F, for E = |psi><psi|.

    n is read from psi's size, D_{n+1} (n >= 1); any other size is a
    ContractError.  E C E = <psi, (C (x) 1) psi> E, and for C = e_i e_j* that
    scalar is entry (j, i) of Psi Psi*, Psi = psi read as (D_n, k_{n+1}),
    while omega(C) is entry (j, i) of the level-n reduction lam_n.  So the
    residual is max |Psi Psi* - lam_n| ||psi||^2.
    """
    n = require_level(state.tower.level_of(len(psi)) - 1)
    big_psi = psi.reshape(state.tower.dim_at(n), -1)
    gap = big_psi @ nk.dagger(big_psi) - state.reduced(n)
    return float(np.max(np.abs(gap)) * np.vdot(psi, psi).real)


# ---------------------------------------------------------------------------
# Genericity self-test
# ---------------------------------------------------------------------------


def check_genericity(state: GenericState, trials: int, rng) -> dict:
    """Operational genericity, checked on the excitation model it certifies.

    Returns the failed sub-checks, each id mapped to its witness, in run
    order; an empty dict means the state is generic.  `separating`: the
    spectrum floor is at least eps_sep.  `extension_projection:n` (n < L):
    the rank-one projection above level n compresses every level-n matrix
    unit C to omega(C) E, within 1e-10 (`extension_projection_residual`).
    `lift_injectivity:n` (n <= L): pairs of level-n operators, half
    Gaussian, half Haar unitary (these expose tracial products, whose density
    conjugation leaves invariant), built with `make_excitation`, are more
    than INJECTIVITY_GAP apart unless one ray (`canonical_mat` vectors equal
    within RAY_EQ_TOL).  Phase recovery is not re-proved: once
    omega(A*A) = 1, omega(A*(tA)) = t by linearity; the `lift` suite checks
    it operationally through `lift_phase`.
    """
    # excitations imports this module, so its constructors are bound at call time
    from .excitations import make_excitation, norm_distance

    tower = state.tower
    failures = {}
    if not state.separating:
        failures["separating"] = {"min_eig": float(state.spectrum[-1]), "eps_sep": state.eps_sep}

    for n in range(1, tower.levels):
        try:
            residual = extension_projection_residual(state, minimal_extension_projection(state, n))
        except Exception as exc:  # report, never raise: the caller reads the failures
            failures[f"extension_projection:{n}"] = {"error": str(exc)}
            continue
        if not residual <= 1e-10:
            failures[f"extension_projection:{n}"] = {"residual": residual}

    for level in range(1, tower.levels + 1):
        d = tower.dim_at(level)
        worst, worst_kind = math.inf, None
        for trial in range(max(trials, 2)):
            kind, draw = (("unitary", nk.haar_unitary) if trial % 2
                          else ("gaussian", nk.random_complex_matrix))
            a, b = draw(rng, d), draw(rng, d)
            try:  # the draws are finite complex matrices at a level of the tower
                exc_a = make_excitation(state, LocalOperator._validated(level, a))
                exc_b = make_excitation(state, LocalOperator._validated(level, b))
            except DegenerateExcitationError:
                continue
            ca, cb = exc_a.canonical_mat, exc_b.canonical_mat
            if nk.frob(ca - cb) <= RAY_EQ_TOL * nk.frob(ca):
                continue
            gap = norm_distance(exc_a, exc_b, scope="top")
            if gap < worst:
                worst, worst_kind = gap, kind
        if not worst > INJECTIVITY_GAP:
            failures[f"lift_injectivity:{level}"] = {"level": level, "kind": worst_kind, "distance": worst}

    return failures
