"""Scenario configuration, claim-keyed verification suites, reports.

A scenario fixes a tower, a reference-state profile and a master seed; every
suite derives its own random stream from ``hash(seed, suite_id)``, so suites
are independent of execution order and two runs of the same scenario agree
check for check.  Reports are plain JSON with residuals also rendered at 17
significant digits for reproducible digests.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from . import numkernel as nk
from .errors import (
    ConfigurationError,
    FunnelError,
    NotNullCombinationError,
    TuningFailureError,
)
from .funnel import (
    PROFILES,
    LocalOperator,
    build_tower,
    check_factor_dims,
    check_genericity,
    matrix_units,
    minimal_extension_projection,
    extension_projection_residual,
    relative_commutant_basis,
    sample_generic_state,
)
from .excitations import (
    _excitation_with_vector,
    compression_check,
    extremality_check,
    find_null_combination,
    lift_phase,
    make_excitation,
    identity_excitation,
    norm_distance,
    null_combination_transfer,
    overlap,
    random_excitation,
)
from .transitions import (
    build_complete_family,
    completeness_sum,
    fuchs_bound_check,
    local_continuity_probe,
    transition_probability,
    uhlmann_fidelity,
)
from . import statealgebra as sa
from . import primitives as pr

SCHEMA_VERSION = "1"
ENGINE_VERSION = "0.1.0"


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


_CONFIG_KEYS = {"tower_dims", "seed", "profile", "suites", "tolerance_overrides", "sample_counts"}


@dataclass
class ScenarioConfig:
    tower_dims: tuple = (2, 2, 4)
    seed: int = 42
    profile: str = "random_full_rank"
    suites: tuple = ()  # empty means: every registered suite
    tolerance_overrides: dict = field(default_factory=dict)
    sample_counts: dict = field(default_factory=dict)

    def __post_init__(self):
        # malformed, oversized or over-capacity towers and unknown profiles are
        # configuration errors, raised before anything is built
        self.tower_dims = check_factor_dims(self.tower_dims)
        d = math.prod(self.tower_dims)
        if d * d > nk.MAX_TOTAL_DIM:  # a complete family holds D^2 vectors of length D^2
            raise ConfigurationError(
                f"tower {self.tower_dims} has doubled dimension {d * d}, above the "
                f"maximum {nk.MAX_TOTAL_DIM} (top dimension D <= {math.isqrt(nk.MAX_TOTAL_DIM)})"
            )
        if self.profile not in PROFILES:
            raise ConfigurationError(f"unknown state profile {self.profile!r}")
        self.seed = int(self.seed)
        if not 0 <= self.seed < 2**64:
            raise ConfigurationError("seed must be a 64-bit unsigned integer")
        self.suites = tuple(self.suites)
        for name in ("tolerance_overrides", "sample_counts"):
            if not isinstance(getattr(self, name), dict):
                raise ConfigurationError(f"{name} must map suite ids to values")
        known = set(SUITES)
        for sid in list(self.suites) + list(self.tolerance_overrides) + list(self.sample_counts):
            if sid not in known:
                raise ConfigurationError(f"unknown suite id {sid!r}")
        # determinism reruns a fixed sub-scenario, so an entry for it would be ignored
        if "determinism" in self.tolerance_overrides or "determinism" in self.sample_counts:
            raise ConfigurationError("suite 'determinism' takes no tolerance or sample count")
        # a zero count would pass a suite on no samples, an infinite tolerance any check
        for sid, count in self.sample_counts.items():
            if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 1:
                raise ConfigurationError(
                    f"sample count for {sid!r} must be a positive integer, got {count!r}")
        for sid, tol in self.tolerance_overrides.items():
            if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 < tol < math.inf:
                raise ConfigurationError(
                    f"tolerance for {sid!r} must be a finite positive number, got {tol!r}")

    @property
    def active_suites(self) -> tuple:
        return self.suites if self.suites else tuple(SUITES)

    def to_dict(self) -> dict:
        return {
            "tower_dims": list(self.tower_dims),
            "seed": self.seed,
            "profile": self.profile,
            "suites": list(self.active_suites),
            "tolerance_overrides": dict(self.tolerance_overrides),
            "sample_counts": dict(self.sample_counts),
        }


def config_from_dict(data: dict) -> ScenarioConfig:
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigurationError(f"unknown configuration keys: {sorted(unknown)}")
    return ScenarioConfig(**data)


def load_config(path) -> ScenarioConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read configuration {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError("configuration document must be a JSON object")
    return config_from_dict(data)


def suite_seed(master_seed: int, suite_id: str) -> int:
    digest = hashlib.sha256(f"{master_seed}:{suite_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# ---------------------------------------------------------------------------
# Checks and reports
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    check_id: str
    status: str           # pass | fail | skipped
    residual: float
    tolerance: float
    comparator: str       # "le": residual <= tolerance, "ge": residual >= tolerance
    witness: dict = None

    def to_dict(self) -> dict:
        return {
            "id": self.check_id,
            "status": self.status,
            "residual": self.residual,
            "residual_17g": f"{self.residual:.16e}",
            "tolerance": self.tolerance,
            "comparator": self.comparator,
            "witness": self.witness,
        }


def _jsonable(value):
    if isinstance(value, complex):
        return {"re": float(value.real), "im": float(value.imag)}
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _finish_check(check_id, ok, measured, tolerance, comparator, witness):
    if witness is None and not ok:
        witness = {"measured": measured}
    return CheckResult(check_id, "pass" if ok else "fail", measured, float(tolerance),
                       comparator, _jsonable(witness) if witness is not None else None)


def check_le(check_id, measured, tolerance, witness=None) -> CheckResult:
    measured = float(measured)
    return _finish_check(check_id, measured <= tolerance, measured, tolerance, "le", witness)


def check_ge(check_id, measured, tolerance, witness=None) -> CheckResult:
    measured = float(measured)
    return _finish_check(check_id, measured >= tolerance, measured, tolerance, "ge", witness)


def check_flag(check_id, ok, witness=None) -> CheckResult:
    return _finish_check(check_id, bool(ok), 0.0 if ok else 1.0, 0.5, "le", witness)


@dataclass
class SuiteResult:
    suite_id: str
    checks: list
    error: str = None

    @property
    def passed(self) -> bool:
        return self.error is None and all(c.status != "fail" for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite_id,
            "error": self.error,
            "checks": [c.to_dict() for c in self.checks],
        }


@dataclass
class VerificationReport:
    scenario: dict
    suites: list
    wall_clock_seconds: float

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites)

    def counts(self) -> dict:
        out = {"pass": 0, "fail": 0, "skipped": 0}
        for s in self.suites:
            if s.error is not None:
                out["fail"] += 1
            for c in s.checks:
                out[c.status] += 1
        return out

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "engine_version": ENGINE_VERSION,
            "scenario": self.scenario,
            "suites": [s.to_dict() for s in self.suites],
            "counts": self.counts(),
            "wall_clock_seconds": self.wall_clock_seconds,
        }


def report_digest(report: VerificationReport) -> str:
    """Stable digest over everything except the wall clock."""
    doc = report.to_dict()
    doc.pop("wall_clock_seconds", None)
    blob = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# Suite environment
# ---------------------------------------------------------------------------


@dataclass
class SuiteEnv:
    config: ScenarioConfig
    suite_id: str
    rng: np.random.Generator
    tower: object
    state: object

    def tol(self, default: float) -> float:
        return float(self.config.tolerance_overrides.get(self.suite_id, default))

    def count(self, default: int) -> int:
        return int(self.config.sample_counts.get(self.suite_id, default))

    def derived_state(self, tag: str, profile: str, dims=None):
        tower = self.tower if dims is None else build_tower(dims)
        return sample_generic_state(tower, suite_seed(self.config.seed, f"{self.suite_id}:{tag}"),
                                    profile=profile)

    def pair(self, level: int):
        return (random_excitation(self.state, self.rng, level=level),
                random_excitation(self.state, self.rng, level=level))

    def element(self, n_terms=2):
        terms = []
        for _ in range(n_terms):
            c = complex(self.rng.standard_normal(), self.rng.standard_normal())
            terms.append((c, random_excitation(self.state, self.rng, level=self.tower.levels)))
        return sa.element_from_terms(self.state, terms)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def _suite_lift(env: SuiteEnv):
    n = env.count(100)
    tol = env.tol(1e-9)
    tower = env.tower
    worst_phase = 0.0
    for k in range(n):
        level = 1 + (k % max(tower.levels - 1, 1))
        a = random_excitation(env.state, env.rng, level=level)
        t = np.exp(2j * np.pi * env.rng.random())
        b = make_excitation(env.state, LocalOperator(level=level, matrix=t * a.op.matrix))
        worst_phase = max(worst_phase, abs(lift_phase(a, b) - t))
    checks = [check_le("lift/phase_recovery", worst_phase, tol)]

    min_dist = np.inf
    for _ in range(n):
        a, b = env.pair(level=1)
        min_dist = min(min_dist, norm_distance(a, b, scope="top"))
    checks.append(check_ge("lift/injectivity_gap", min_dist, 1e-6))

    worst_gauge = 0.0
    for _ in range(10):
        a = random_excitation(env.state, env.rng, level=1)
        t = np.exp(2j * np.pi * env.rng.random())
        b = make_excitation(env.state, LocalOperator(level=1, matrix=t * a.op.matrix))
        worst_gauge = max(worst_gauge, nk.frob(a.canonical_matrix - b.canonical_matrix))
    checks.append(check_le("lift/gauge_stability", worst_gauge, 1e-12))

    genericity = check_genericity(env.state, trials=10, rng=env.rng)
    checks.append(check_flag("lift/genericity_selftest", genericity.passed,
                             witness={"failures": [c.check_id for c in genericity.failures]}))
    return checks


def _null_family(env: SuiteEnv, level: int):
    d = env.tower.dim_at(level)
    a = nk.random_complex_matrix(env.rng, d)
    b = nk.random_complex_matrix(env.rng, d)
    excs = []
    for _ in range(5):
        alpha = complex(env.rng.standard_normal(), env.rng.standard_normal())
        beta = complex(env.rng.standard_normal(), env.rng.standard_normal())
        excs.append(make_excitation(env.state, LocalOperator(level=level, matrix=alpha * a + beta * b)))
    return excs


def _suite_null_transfer(env: SuiteEnv):
    combos = env.count(20)
    tol = env.tol(1e-7)
    worst = 0.0
    witness = None
    for k in range(combos):
        level = 1 + (k % max(env.tower.levels - 1, 1))
        excs = _null_family(env, level)
        coeffs = find_null_combination(excs)
        report = null_combination_transfer(coeffs, excs, trials=50, rng=env.rng)
        if report.max_ratio > worst:
            worst = report.max_ratio
            witness = report.worst_witness
    checks = [check_le("null_transfer/max_ratio", worst, tol, witness=witness)]

    independent = [random_excitation(env.state, env.rng, level=1) for _ in range(3)]
    try:
        find_null_combination(independent)
        checks.append(check_flag("null_transfer/independent_rejected", False))
    except NotNullCombinationError:
        checks.append(check_flag("null_transfer/independent_rejected", True))
    return checks


def _suite_min_projection(env: SuiteEnv):
    tol = env.tol(1e-10)
    checks = []
    for n in range(1, env.tower.levels):
        proj = minimal_extension_projection(env.state, n)
        residual = extension_projection_residual(env.state, proj)
        checks.append(check_le(f"min_projection/compression_identity:{n}", residual, tol))
        e = proj.projector
        valid = max(nk.frob(e @ e - e), nk.frob(e - nk.dagger(e)),
                    abs(np.trace(e) - 1.0))
        checks.append(check_le(f"min_projection/projector_valid:{n}", valid, 1e-12))
        com_worst = 0.0
        for rc in itertools.islice(relative_commutant_basis(env.tower, n), 4):
            for unit in list(matrix_units(env.tower.dim_at(n)))[:4]:
                u_emb = env.state.embed(LocalOperator(level=n, matrix=unit))
                r_emb = env.state.embed(rc)
                com_worst = max(com_worst, nk.frob(u_emb @ r_emb - r_emb @ u_emb))
        checks.append(check_le(f"min_projection/commutant_blocks:{n}", com_worst, 1e-12))
    return checks


def _suite_extreme_points(env: SuiteEnv):
    n = env.count(50)
    checks = []
    worst_second = 0.0
    worst_lead = 0.0
    projections = {}
    for k in range(n):
        level = 1 + (k % max(env.tower.levels - 1, 1))
        exc = random_excitation(env.state, env.rng, level=level)
        if level not in projections:
            projections[level] = minimal_extension_projection(env.state, level)
        comp = compression_check(exc, projections[level])
        worst_second = max(worst_second, comp.second_singular)
        worst_lead = max(worst_lead, abs(comp.leading_singular - comp.expected_leading))
    checks.append(check_le("extreme_points/compression_rank_one", worst_second, env.tol(1e-9)))
    checks.append(check_le("extreme_points/compression_weight", worst_lead, 1e-9))

    a = random_excitation(env.state, env.rng, level=1)
    b = make_excitation(env.state, LocalOperator(level=1, matrix=1j * a.op.matrix))
    rep = extremality_check(a, [(0.5, a), (0.5, b)])
    checks.append(check_flag("extreme_points/phase_collapse_passes", rep.passed))

    c, d = env.pair(level=1)
    rep2 = extremality_check(a, [(0.5, c), (0.5, d)])
    checks.append(check_flag(
        "extreme_points/distinct_rejected",
        (not rep2.is_representation) and rep2.mixture_distance > 1e-6,
        witness={"distance": rep2.mixture_distance}))
    return checks


def _fuchs_stats(state, rng, n):
    worst_sym = 0.0
    worst_chain = 0.0
    min_slack = np.inf
    max_slack = -np.inf
    raw_range = 0.0
    for _ in range(n):
        a = random_excitation(state, rng, level=1 + int(rng.integers(state.tower.levels)))
        b = random_excitation(state, rng, level=a.level)
        p_ab = abs(overlap(a, b)) ** 2
        p_ba = abs(overlap(b, a)) ** 2
        worst_sym = max(worst_sym, abs(p_ab - p_ba))
        raw_range = max(raw_range, -p_ab, p_ab - 1.0)
        reduced = abs(np.trace(state.lam @ nk.dagger(a.top) @ b.top)) ** 2
        worst_chain = max(worst_chain, abs(reduced - p_ab))
        rep = fuchs_bound_check(a, b)
        min_slack = min(min_slack, rep.slack)
        max_slack = max(max_slack, rep.slack)
    return worst_sym, worst_chain, raw_range, min_slack, max_slack


def _suite_fuchs(env: SuiteEnv):
    n = env.count(200)
    sym, chain, rng_excess, min_slack, max_slack = _fuchs_stats(env.state, env.rng, n)
    checks = [
        check_le("fuchs/symmetry", sym, 1e-12),
        check_le("fuchs/range", rng_excess, 1e-12),
        check_le("fuchs/chain_consistency", chain, 1e-12),
        check_ge("fuchs/bound_min_slack", min_slack, -1e-10),
        check_ge("fuchs/mixed_strict_gap", max_slack, env.tol(1e-3),
                 witness={"max_slack": max_slack}),
    ]
    pure = env.derived_state("pure", "pure")
    rng = np.random.default_rng(suite_seed(env.config.seed, "fuchs:pure-pairs"))
    worst_eq = 0.0
    for _ in range(50):
        a = random_excitation(pure, rng, level=1)
        b = random_excitation(pure, rng, level=2)
        worst_eq = max(worst_eq, fuchs_bound_check(a, b).pure_equality_residual)
    checks.append(check_le("fuchs/pure_equality", worst_eq, 1e-9))

    base, probe = env.pair(level=1)
    direction = LocalOperator(level=1, matrix=nk.random_complex_matrix(env.rng, env.tower.dim_at(1)))
    cont = local_continuity_probe(base, probe, direction, scales=[1, 2, 4, 8, 16, 32])
    devs = cont.deviations()
    checks.append(check_le("fuchs/local_continuity_tail", devs[-1],
                           max(devs[0], 1e-12),
                           witness={"envelope_coefficient": cont.envelope_coefficient}))
    return checks


def _suite_uhlmann(env: SuiteEnv):
    n = env.count(200)
    min_slack = np.inf
    max_gap = -np.inf
    for _ in range(n):
        a = random_excitation(env.state, env.rng, level=1 + int(env.rng.integers(env.tower.levels)))
        b = random_excitation(env.state, env.rng, level=a.level)
        gap = uhlmann_fidelity(a, b) - transition_probability(a, b)
        min_slack = min(min_slack, gap)
        max_gap = max(max_gap, gap)
    checks = [
        check_ge("uhlmann/dominates", min_slack, -1e-10),
        check_ge("uhlmann/mixed_strict_gap", max_gap, env.tol(1e-3),
                 witness={"max_gap": max_gap}),
    ]
    pure = env.derived_state("pure", "pure")
    rng = np.random.default_rng(suite_seed(env.config.seed, "uhlmann:pure-pairs"))
    worst_eq = 0.0
    for _ in range(50):
        a = random_excitation(pure, rng, level=1)
        b = random_excitation(pure, rng, level=2)
        worst_eq = max(worst_eq, abs(uhlmann_fidelity(a, b) - transition_probability(a, b)))
    checks.append(check_le("uhlmann/pure_equality", worst_eq, 1e-9))
    return checks


def _member_concentration(family, k: int) -> float:
    """sum_{m != k} |<v_m, v_k>|^2 over a block family: the weight member k puts elsewhere.

    Member k is e_{k // D} (x) q_{k % D}, so the weights are column k % D of
    the block, and 0 outside it.  The self term is removed before the sum,
    not subtracted after it: beside a self term of 1 the true value (about
    1e-32) would round to 0.
    """
    k %= len(family.block)
    return float(np.delete(np.abs(family.block[:, k]) ** 2, k).sum())


def _completeness_checks(env: SuiteEnv, state, tag: str, probes: int):
    # the seeded probes are drawn once; the two D^2-member families are
    # compared through the first one's recorded sums, so only one is alive
    rng = np.random.default_rng(suite_seed(env.config.seed, f"completeness:probes:{tag}"))
    probe_states = [random_excitation(state, rng, level=state.tower.levels)
                    for _ in range(probes)]
    family = build_complete_family(state)
    d2 = state.dim ** 2
    checks = [check_flag(f"completeness/size:{tag}", len(family) == d2,
                         witness={"size": len(family), "expected": d2})]
    off = family.max_off_diagonal()
    diag = family.max_norm_deviation()
    checks.append(check_le(f"completeness/orthogonality:{tag}", off, 1e-9))
    checks.append(check_le(f"completeness/normalization:{tag}", diag, 1e-10))
    sums = [completeness_sum(family, probe) for probe in probe_states]
    worst = max([0.0] + [abs(total - 1.0) for total in sums])
    checks.append(check_le(f"completeness/sum:{tag}", worst, env.tol(1e-8)))
    concentrated = _member_concentration(family, min(3, len(family) - 1))
    checks.append(check_le(f"completeness/member_concentration:{tag}", concentrated, 1e-12))
    del family

    # the matrix units in reverse lexicographic order, streamed: E_ij is the
    # unit with a one at flat index i D + j
    family = build_complete_family(state, generators=(
        LocalOperator(level=state.tower.levels,
                      matrix=np.eye(1, d2, k, dtype=complex).reshape(state.dim, state.dim))
        for k in reversed(range(d2))))
    worst2 = max([0.0] + [abs(completeness_sum(family, probe) - total)
                          for probe, total in zip(probe_states, sums)])
    checks.append(check_le(f"completeness/generator_invariance:{tag}", worst2, 1e-8))
    return checks


def _suite_completeness(env: SuiteEnv):
    probes = env.count(20)
    checks = _completeness_checks(env, env.state, "main", probes)
    small_state = env.derived_state("small", env.config.profile, dims=(2, 2))
    checks += _completeness_checks(env, small_state, "2x2", probes)
    return checks


def _suite_state_algebra(env: SuiteEnv):
    n = env.count(50)
    tol = env.tol(1e-10)
    worst_assoc = 0.0
    for _ in range(n):
        p1, p2, p3 = env.element(), env.element(), env.element()
        left = sa.times(sa.times(p1, p2), p3)
        right = sa.times(p1, sa.times(p2, p3))
        worst_assoc = max(worst_assoc, sa.kernel_distance(left, right))
    checks = [check_le("state_algebra/associativity", worst_assoc, tol)]

    # the product kernel against applying the factor kernels in turn, on the
    # reference vector and three seeded unit vectors
    probe_rng = np.random.default_rng(suite_seed(env.config.seed, "state_algebra:probes"))
    probes = [env.state.omega_vector] + [
        nk.random_unit_vector(probe_rng, env.state.doubled_dim) for _ in range(3)]
    worst_inv = 0.0
    worst_invol = 0.0
    worst_mult = 0.0
    for _ in range(20):
        p1, p2 = env.element(), env.element()
        prod = sa.times(p1, p2)
        worst_inv = max(worst_inv, sa.kernel_distance(
            sa.dagger(prod), sa.times(sa.dagger(p2), sa.dagger(p1))))
        worst_invol = max(worst_invol, sa.kernel_distance(sa.dagger(sa.dagger(p1)), p1))
        scale_f = max(prod.kernel_norm(), 1.0)
        for x in probes:
            gap = np.linalg.norm(prod.kernel_apply(x) - p1.kernel_apply(p2.kernel_apply(x)))
            worst_mult = max(worst_mult, float(gap) / scale_f)
    checks.append(check_le("state_algebra/involution_compat", worst_inv, tol))
    checks.append(check_le("state_algebra/involution_squared", worst_invol, 1e-12))
    checks.append(check_le("state_algebra/kernel_multiplicative", worst_mult, tol))

    worst_idem = 0.0
    worst_min = 0.0
    worst_triple = 0.0
    worst_quad = 0.0
    for _ in range(20):
        a = random_excitation(env.state, env.rng, level=1)
        c = random_excitation(env.state, env.rng, level=2)
        b = random_excitation(env.state, env.rng, level=1)
        dd = random_excitation(env.state, env.rng, level=2)
        pa, pb, pc, pd = (sa.excitation_element(x) for x in (a, b, c, dd))
        worst_idem = max(worst_idem, sa.kernel_distance(sa.times(pa, pa), pa))
        chain = sa.times(sa.times(pa, pc), pa)
        worst_min = max(worst_min, sa.kernel_distance(
            chain, sa.scale(transition_probability(a, c), pa)))
        eye = LocalOperator(level=1, matrix=np.eye(env.tower.dim_at(1), dtype=complex))
        triple = sa.times(sa.times(pa, pb), pc).evaluate(eye)
        closed = overlap(a, b) * overlap(b, c) * overlap(c, a)
        worst_triple = max(worst_triple, abs(triple - closed))
        quad = sa.times(sa.times(sa.times(pa, pb), pc), pd).evaluate(eye)
        closed4 = overlap(a, b) * overlap(b, c) * overlap(c, dd) * overlap(dd, a)
        worst_quad = max(worst_quad, abs(quad - closed4))
    checks.append(check_le("state_algebra/idempotent", worst_idem, tol))
    checks.append(check_le("state_algebra/minimality", worst_min, tol))
    checks.append(check_le("state_algebra/triple_product", worst_triple, tol))
    checks.append(check_le("state_algebra/quadruple_product", worst_quad, tol))

    # an orthogonal pair: a1.omega is a seeded vector with its a0.omega component removed
    a0 = random_excitation(env.state, env.rng, level=env.tower.levels)
    w = nk.random_unit_vector(env.rng, env.state.doubled_dim)
    a1 = _excitation_with_vector(env.state, w - np.vdot(a0.vector, w) * a0.vector)
    prod = sa.times(sa.excitation_element(a0), sa.excitation_element(a1))
    checks.append(check_le("state_algebra/orthogonal_product_zero", prod.kernel_norm(), tol))

    worst_bimod = 0.0
    worst_beval = 0.0
    for _ in range(10):
        psi = env.element()
        d1 = env.tower.dim_at(1)
        a_op = LocalOperator(level=1, matrix=nk.random_complex_matrix(env.rng, d1))
        b_op = LocalOperator(level=1, matrix=nk.random_complex_matrix(env.rng, d1))
        # (A x (B x psi))(C) = psi(BAC), so composing acts by the swapped product
        ba = LocalOperator(level=1, matrix=b_op.matrix @ a_op.matrix)
        lhs = sa.bimodule_act("left", a_op, sa.bimodule_act("left", b_op, psi))
        rhs = sa.bimodule_act("left", ba, psi)
        worst_bimod = max(worst_bimod, sa.kernel_distance(lhs, rhs))
        exc = random_excitation(env.state, env.rng, level=1)
        c_op = LocalOperator(level=1, matrix=nk.random_complex_matrix(env.rng, d1))
        acted = sa.bimodule_act("left", a_op, sa.excitation_element(exc))
        direct = exc.evaluate(LocalOperator(level=1, matrix=a_op.matrix @ c_op.matrix))
        worst_beval = max(worst_beval, abs(acted.evaluate(c_op) - direct))
    checks.append(check_le("state_algebra/bimodule_assoc", worst_bimod, tol))
    checks.append(check_le("state_algebra/bimodule_eval", worst_beval, 1e-12))

    worst_null = 0.0
    for _ in range(5):
        excs = _null_family(env, 1)
        coeffs = find_null_combination(excs)
        null_el = sa.element_from_terms(env.state, list(zip(coeffs, excs)))
        worst_null = max(worst_null, sa.times(null_el, env.element()).kernel_norm())
    checks.append(check_le("state_algebra/null_descent", worst_null, 1e-8))
    return checks


def _gram_spectrum(terms) -> np.ndarray:
    """Nonzero eigenvalues, largest first, of the kernel sum_m c_m |v_m><v_m| (all c_m >= 0).

    With V = [v_1 .. v_k] and C = diag(c), the kernel V C V* has the nonzero
    spectrum of the k x k matrix C^1/2 V*V C^1/2 (AB and BA share theirs).
    Built from the terms, not from the element, so it checks
    `spectral_decompose` independently of the element's factorisation.
    """
    v = np.array([exc.vector for _, exc in terms]).T * np.sqrt([c for c, _ in terms])
    eig = np.linalg.eigvalsh(nk.dagger(v) @ v)
    return eig[np.abs(eig) > 1e-12][::-1]


def _suite_spectral(env: SuiteEnv):
    n = env.count(20)
    checks = []
    worst_recon = 0.0
    worst_orth = 0.0
    for _ in range(n):
        p = env.element(n_terms=3)
        sym = sa.scale(0.5, p + sa.dagger(p))
        dec = sa.spectral_decompose(sym)
        worst_recon = max(worst_recon, dec.reconstruction_residual)
        for i in range(len(dec.states)):
            for j in range(i + 1, len(dec.states)):
                worst_orth = max(worst_orth, transition_probability(dec.states[i], dec.states[j]))
    checks.append(check_le("spectral/reconstruction", worst_recon, env.tol(1e-9)))
    checks.append(check_le("spectral/orthogonality", worst_orth, 1e-9))

    min_weight = np.inf
    worst_sum = 0.0
    mixtures_flagged = True
    for _ in range(n):
        k = 2 + int(env.rng.integers(3))
        probs = env.rng.random(k)
        probs /= probs.sum()
        terms = [(p, random_excitation(env.state, env.rng, level=1 + int(env.rng.integers(env.tower.levels))))
                 for p in probs]
        mix = sa.element_from_terms(env.state, terms)
        dec = sa.spectral_decompose(mix)
        min_weight = min(min_weight, float(np.min(dec.weights)))
        worst_sum = max(worst_sum, abs(float(np.sum(dec.weights)) - 1.0))
        mixtures_flagged = mixtures_flagged and dec.is_convex_mixture
    checks.append(check_ge("spectral/mixture_weights_nonnegative", min_weight, -1e-10))
    checks.append(check_le("spectral/mixture_weight_sum", worst_sum, 1e-9))
    checks.append(check_flag("spectral/mixture_classified", mixtures_flagged))

    a, b = env.pair(level=1)
    terms = [(0.5, a), (0.5, b)]
    dec = sa.spectral_decompose(sa.element_from_terms(env.state, terms))
    oracle = _gram_spectrum(terms)
    aligned = np.sort(dec.weights)[::-1]
    oracle_gap = (np.max(np.abs(aligned - oracle))
                  if len(aligned) == len(oracle) else np.inf)
    checks.append(check_le("spectral/dense_oracle", oracle_gap, 1e-10,
                           witness={"weights": list(map(float, aligned))}))
    return checks


def _traceless_excitation(env: SuiteEnv):
    """Excitation of X - omega(X) 1 for a seeded top-level X, an operator omega annihilates."""
    d = env.state.dim
    x = nk.random_complex_matrix(env.rng, d)
    x = x - np.trace(env.state.lam @ x) * np.eye(d, dtype=complex)
    return make_excitation(env.state, LocalOperator(env.tower.levels, x))


def _suite_duality(env: SuiteEnv):
    n = env.count(50)
    worst_link = 0.0
    for _ in range(30):
        a, b = env.pair(level=1 + int(env.rng.integers(env.tower.levels)))
        val = sa.dual_state_apply(a, sa.excitation_element(b))
        worst_link = max(worst_link, abs(val - transition_probability(a, b)))
    checks = [check_le("duality/transition_link", worst_link, env.tol(1e-12))]

    exc = random_excitation(env.state, env.rng, level=1)
    self_val = sa.dual_state_apply(exc, sa.excitation_element(exc))
    checks.append(check_le("duality/projection_expectation", abs(self_val - 1.0), 1e-10))

    min_pos = np.inf
    worst_oracle = 0.0
    for _ in range(n):
        psi = env.element(n_terms=2)
        probe = random_excitation(env.state, env.rng, level=1)
        val = sa.dual_state_apply(probe, sa.times(sa.dagger(psi), psi))
        min_pos = min(min_pos, float(np.real(val)))
        coeffs = np.array([c for c, _ in psi.terms])
        gram = np.zeros((len(coeffs), len(coeffs)), dtype=complex)
        for k, (_, bk) in enumerate(psi.terms):
            for l, (_, bl) in enumerate(psi.terms):
                gram[k, l] = (overlap(probe, bk) * overlap(bk, bl) * overlap(bl, probe))
        oracle = np.conj(coeffs) @ gram @ coeffs
        worst_oracle = max(worst_oracle, abs(val - oracle))
    checks.append(check_ge("duality/positivity", min_pos, -1e-10))
    checks.append(check_le("duality/gram_oracle", worst_oracle, 1e-10))

    found = 0
    total = env.count(30)
    for k in range(total):
        if k % 3 == 2:  # traceless construction: omega annihilates every term
            terms = []
            for _ in range(2):
                exc = _traceless_excitation(env)
                terms.append((complex(env.rng.standard_normal(), env.rng.standard_normal()), exc))
            psi = sa.element_from_terms(env.state, terms)
        else:
            psi = env.element(n_terms=2)
        witness = sa.faithfulness_probe(psi)
        if abs(witness.value) > 1e-9:
            found += 1
    checks.append(check_flag("duality/faithfulness_witnesses", found == total,
                             witness={"found": found, "total": total}))
    return checks


def _suite_w_isomorphism(env: SuiteEnv):
    worst_inner = 0.0
    for _ in range(env.count(30)):
        p1 = env.element(n_terms=2)
        p2 = env.element(n_terms=2)
        gns = sa.gns_inner(p1, p2)
        w_img = np.vdot(sa.w_isomorphism(p1), sa.w_isomorphism(p2))
        chain = 0.0 + 0.0j
        for cl, al in p1.terms:
            for cm, am in p2.terms:
                chain += (np.conj(cl) * cm * np.vdot(env.state.omega_vector, al.vector)
                          * overlap(al, am) * np.vdot(am.vector, env.state.omega_vector))
        worst_inner = max(worst_inner, abs(gns - w_img), abs(gns - chain))
    checks = [check_le("w_isomorphism/inner_products", worst_inner, env.tol(1e-10))]

    worst_int = 0.0
    for _ in range(20):
        psi = env.element(n_terms=2)
        phi = env.element(n_terms=2)
        lhs = sa.w_isomorphism(sa.times(psi, phi))
        rhs = psi.kernel_apply(sa.w_isomorphism(phi))
        worst_int = max(worst_int, float(np.linalg.norm(lhs - rhs)))
    checks.append(check_le("w_isomorphism/intertwining", worst_int, 1e-9))

    ident = sa.excitation_element(identity_excitation(env.state))
    checks.append(check_le(
        "w_isomorphism/identity_to_omega",
        float(np.linalg.norm(sa.w_isomorphism(ident) - env.state.omega_vector)), 1e-12))

    null_el = sa.excitation_element(_traceless_excitation(env))
    checks.append(check_le("w_isomorphism/null_class",
                           float(np.linalg.norm(sa.w_isomorphism(null_el))), 1e-10))
    return checks


def _seeded_partial_isometry(rng, level_dim: int, rank: int, level: int) -> pr.PartialIsometry:
    u = nk.haar_unitary(rng, level_dim)
    w = nk.haar_unitary(rng, level_dim)
    v = u[:, :rank] @ nk.dagger(w[:, :rank])
    return pr.PartialIsometry(level=level, matrix=v)


def _suite_dilation(env: SuiteEnv):
    checks = []
    top = env.tower.levels
    d = env.tower.top_dim
    v = _seeded_partial_isometry(env.rng, d, max(2, d // 3), top)
    schedule = pr.increasing_projection_schedule(v.initial, steps=4)
    dilation = pr.dilate_to_unitaries(v, schedule)
    worst_unitary = 0.0
    for step in dilation.steps:
        u = step.unitary.unitary
        eye = np.eye(u.shape[0], dtype=complex)
        worst_unitary = max(worst_unitary, nk.frob(nk.dagger(u) @ u - eye))
    checks.append(check_le("dilation/unitarity", worst_unitary, env.tol(1e-12)))
    checks.append(check_le("dilation/on_schedule_exact",
                           max(s.on_step_residual for s in dilation.steps), 1e-12))
    checks.append(check_le("dilation/final_matches", dilation.steps[-1].on_initial_residual, 1e-12))

    h1, h2 = pr.hermitian_parts(dilation.final.unitary)
    parts_res = max(nk.frob(h1 - nk.dagger(h1)), nk.frob(h2 - nk.dagger(h2)),
                    nk.frob(h1 @ h2 - h2 @ h1))
    checks.append(check_le("dilation/hermitian_parts", parts_res, 1e-12))

    family = pr.tuned_isometries(v, schedule, seed=suite_seed(env.config.seed, "dilation:probes"))
    weak = [r.weak for r in family.rows]
    strong = [r.strong for r in family.rows]
    mono = max(
        [weak[i + 1] - weak[i] for i in range(len(weak) - 1)]
        + [strong[i + 1] - strong[i] for i in range(len(strong) - 1)]
        + [0.0]
    )
    checks.append(check_le("dilation/tuned_envelope_monotone", mono, 1e-12,
                           witness={"weak": weak, "strong": strong}))
    checks.append(check_le("dilation/tuned_final_exact", max(weak[-1], strong[-1]), 1e-12))

    exc = random_excitation(env.state, env.rng, level=top)
    probe = pr.detector_bound_probe(v.range_projection, exc, family.isometries)
    checks.append(check_le("dilation/tuned_bound_final_gap", probe.final_gap, 1e-9))

    iso, value, target = pr.partial_isometry_sup_witness(v.range_projection, exc)
    checks.append(check_ge("dilation/sup_witness_exceeds", value - target, 0.0,
                           witness={"value": value, "target": target}))
    return checks


def _concentrated_states(env: SuiteEnv, e_proj, count: int, leak: float):
    d = e_proj.shape[0]
    eye = np.eye(d, dtype=complex)
    comp = eye - e_proj
    states = []
    for _ in range(count):
        g = nk.random_complex_matrix(env.rng, d)
        h = nk.random_complex_matrix(env.rng, d)
        op = e_proj @ g + leak * comp @ h
        states.append(make_excitation(env.state, LocalOperator(env.tower.levels, op)))
    return states


def _suite_detector(env: SuiteEnv):
    eps = env.tol(1e-3)
    n_states = env.count(10)
    d = env.tower.top_dim
    # Rank and cut points follow D so that the projection stays proper and
    # the three recovery blocks non-empty; at D=16 they are 4 and 6/5/5.
    # The states leak about 1e-4 (D - rank) / rank outside E: past eps at
    # D=48 for rank 4, so from D=40 the rank is D/8, holding it near 7e-4.
    e_proj = nk.random_projection(env.rng, d, max(min(4, d // 2), d // 8))
    states = _concentrated_states(env, e_proj, n_states, leak=0.01)
    det = pr.tune_detector(e_proj, eps, states)
    checks = [
        check_le("detector/leak_bound", det.worst_leak, eps),
        check_le("detector/probability_bound", det.worst_probability_gap, 4 * eps),
    ]
    try:
        pr.tune_detector(e_proj, 1e-15, states)
        checks.append(check_flag("detector/floor_rejected", False))
    except TuningFailureError as err:
        checks.append(check_flag("detector/floor_rejected", err.best_epsilon > 1e-15,
                                 witness={"best_epsilon": err.best_epsilon}))

    k1 = -(-3 * d // 8)  # ceil(3d / 8)
    k2 = k1 + (d - k1) // 2
    basis = np.eye(d, dtype=complex)
    e1 = basis[:, :k1] @ nk.dagger(basis[:, :k1])
    e2 = basis[:, k1:k2] @ nk.dagger(basis[:, k1:k2])
    e3 = basis[:, k2:] @ nk.dagger(basis[:, k2:])
    weights = (1.0, -0.5, 2.0)
    exc = random_excitation(env.state, env.rng, level=env.tower.levels)
    estimate = pr.recover_observable([e1, e2, e3], weights, exc)
    observable = weights[0] * e1 + weights[1] * e2 + weights[2] * e3
    direct = float(np.real(np.trace(exc.rho @ observable)))
    bound = 3 * np.sqrt(4 * eps) * max(abs(w) for w in weights) + 1e-9
    checks.append(check_le("detector/recovery_error", abs(estimate - direct), bound,
                           witness={"estimate": estimate, "direct": direct}))
    return checks


def _suite_ut_form(env: SuiteEnv):
    tol = env.tol(1e-12)
    phases = (1.0, 1j, -1.0, np.exp(0.3j))
    worst = 0.0
    d2 = env.tower.dim_at(2)
    for k in range(env.count(10)):
        if k % 2:
            e = nk.random_projection(env.rng, env.tower.top_dim, int(env.rng.integers(1, env.tower.top_dim)))
            level = env.tower.levels
        else:
            e = nk.random_projection(env.rng, d2, int(env.rng.integers(1, d2)))
            level = 2
        exc = random_excitation(env.state, env.rng, level=1 + int(env.rng.integers(env.tower.levels)))
        for t in phases:
            closed = pr.ut_probability(e, t, exc, level=level)
            obs = pr.ut_unitary(e, t, level)
            final = pr.apply_observable(obs, exc)
            operational = transition_probability(exc, final)
            worst = max(worst, abs(closed - operational))
    checks = [check_le("ut_form/closed_vs_operational", worst, tol)]

    exc = random_excitation(env.state, env.rng, level=1)
    e_full = np.eye(env.tower.top_dim, dtype=complex)
    worst_full = max(abs(pr.ut_probability(e_full, t, exc) - 1.0) for t in phases)
    checks.append(check_le("ut_form/full_projection_trivial", worst_full, 1e-12))
    return checks


def _suite_vacuum(env: SuiteEnv):
    det = pr.vacuum_detector(env.state)
    silent = abs(np.trace(env.state.lam @ det.unitary))
    checks = [check_le("vacuum/silent_on_reference", silent, env.tol(1e-10))]

    ident = identity_excitation(env.state)
    response0 = transition_probability(ident, pr.apply_observable(det, ident))
    checks.append(check_le("vacuum/zero_response_on_vacuum", response0, 1e-12))

    min_dist = np.inf
    responders = 0
    for _ in range(env.count(10)):
        exc = random_excitation(env.state, env.rng, level=1 + int(env.rng.integers(env.tower.levels)))
        response = transition_probability(exc, pr.apply_observable(det, exc))
        if response > 1e-9:
            responders += 1
            min_dist = min(min_dist, norm_distance(exc, ident, scope="top"))
    checks.append(check_flag("vacuum/responders_found", responders > 0,
                             witness={"responders": responders}))
    checks.append(check_ge("vacuum/distance_witness",
                           min_dist if responders else 0.0, 1e-6))
    return checks


def _suite_commensurability(env: SuiteEnv):
    clock, shift = pr.clock_and_shift(3)
    res = pr.commensurable(shift, clock)
    expected = np.exp(2j * np.pi / 3)
    ok = (res.commensurable and not res.commutes
          and abs(res.phase - expected) <= 1e-10)
    checks = [check_flag("commensurability/clock_shift", ok,
                         witness={"phase": res.phase, "residual": res.residual})]

    d2 = env.tower.dim_at(2)
    diag1 = np.diag(np.exp(2j * np.pi * env.rng.random(d2)))
    diag2 = np.diag(np.exp(2j * np.pi * env.rng.random(d2)))
    res_diag = pr.commensurable(pr.PrimitiveObservable(2, diag1), pr.PrimitiveObservable(2, diag2))
    checks.append(check_flag("commensurability/diagonal_commute",
                             res_diag.commensurable and res_diag.commutes))

    min_residual = np.inf
    false_count = 0
    n = env.count(20)
    for _ in range(n):
        u1 = nk.haar_unitary(env.rng, env.tower.top_dim)
        u2 = nk.haar_unitary(env.rng, env.tower.top_dim)
        res_r = pr.commensurable(pr.PrimitiveObservable(env.tower.levels, u1),
                                 pr.PrimitiveObservable(env.tower.levels, u2))
        if not res_r.commensurable:
            false_count += 1
        min_residual = min(min_residual, res_r.residual)
    checks.append(check_flag("commensurability/random_rejected", false_count == n))
    checks.append(check_ge("commensurability/random_residual", min_residual, 1e-3))

    # E2 = E1 + vv*, v a unit vector in ran(1 - E1): distinct projections that commute
    e1 = nk.random_projection(env.rng, d2, 2)
    v = nk.herm_eig(np.eye(d2, dtype=complex) - e1).eigenvectors[:, :1]
    probe = pr.commensurable_projection_probe(e1, e1 + v @ nk.dagger(v), level=2)
    checks.append(check_le("commensurability/probe_commuting_projections",
                           max(r for _, r in probe["rows"]), env.tol(1e-10),
                           witness={"commutator_norm": probe["commutator_norm"]}))
    return checks


_DETERMINISM_SUBSET = ("lift", "fuchs", "vacuum")


def _suite_determinism(env: SuiteEnv):
    sub_config = ScenarioConfig(
        tower_dims=env.config.tower_dims,
        seed=env.config.seed,
        profile=env.config.profile,
        suites=_DETERMINISM_SUBSET,
        sample_counts={"lift": 20, "fuchs": 40},
    )
    first = _execute(sub_config)
    second = _execute(sub_config)

    def digest(results):
        doc = [s.to_dict() for s in results]
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()

    d1, d2 = digest(first), digest(second)
    return [check_flag("determinism/identical_reruns", d1 == d2,
                       witness={"first": d1, "second": d2})]


@dataclass(frozen=True)
class SuiteInfo:
    suite_id: str
    claim: str
    description: str
    runner: object


SUITES = {}


def _register(suite_id, claim, description, fn):
    SUITES[suite_id] = SuiteInfo(suite_id, claim, description, fn)


_register("lift", "bijective lift of excitation states onto operator rays",
          "phase recovery, injectivity gap, gauge stability, genericity self-test", _suite_lift)
_register("null_transfer", "null combinations of states annihilate all compressions",
          "constructed rank-one-kernel dependencies transfer to operators", _suite_null_transfer)
_register("min_projection", "rank-one extension projections reproduce the state",
          "E C E = omega(C) E over the full matrix-unit basis at every level", _suite_min_projection)
_register("extreme_points", "excitation states are extreme in their convex hull",
          "rank-one compressions; convex decompositions collapse to one ray", _suite_extreme_points)
_register("fuchs", "transition probabilities obey the quadratic distance bound",
          "symmetry, range, 1 - d^2/4 bound, pure-state equality, local continuity", _suite_fuchs)
_register("uhlmann", "intrinsic overlap never exceeds the fidelity comparison",
          "dominance on mixed states, equality for a pure reference", _suite_uhlmann)
_register("completeness", "orthogonal families resolve every probe state",
          "family of D^2 states with unit completeness sums", _suite_completeness)
_register("state_algebra", "the span of excitations closes into a *-algebra",
          "associativity, involution, closed product forms, bimodule actions", _suite_state_algebra)
_register("spectral", "symmetric elements split into orthogonal states",
          "reconstruction, orthogonality, convex mixtures keep weights", _suite_spectral)
_register("duality", "dual states are positive and faithful on the algebra",
          "positivity oracle, faithfulness witnesses incl. shifted probes", _suite_duality)
_register("w_isomorphism", "the kernel picture is a spatial isomorphism",
          "inner products match, intertwines products with kernels", _suite_w_isomorphism)
_register("dilation", "partial isometries dilate to convergent unitaries",
          "exact unitarity, final-step identity, monotone tuned tables", _suite_dilation)
_register("detector", "tuned operations detect projections within epsilon",
          "leak and probability bounds, observable recovery", _suite_detector)
_register("ut_form", "two-projection unitaries have a closed survival formula",
          "analytic versus operational probability at several phases", _suite_ut_form)
_register("vacuum", "a silent unitary flags every deviation from the reference",
          "zero response on the reference, positive distance witnesses", _suite_vacuum)
_register("commensurability", "operations can commute up to a phase",
          "clock-and-shift pair, genuinely commuting and generic pairs", _suite_commensurability)
_register("determinism", "identical scenarios reproduce identical reports",
          "re-runs a suite subset and compares digests", _suite_determinism)


def list_suites():
    return [
        {"id": info.suite_id, "claim": info.claim, "description": info.description}
        for info in SUITES.values()
    ]


def _execute(config: ScenarioConfig):
    results = []
    tower = None
    state = None
    construction_error = None
    try:
        tower = build_tower(config.tower_dims)
        state = sample_generic_state(tower, config.seed, profile=config.profile)
    except FunnelError as exc:
        construction_error = f"{type(exc).__name__}: {exc}"

    for suite_id in config.active_suites:
        if construction_error is not None:
            results.append(SuiteResult(suite_id=suite_id, checks=[], error=construction_error))
            continue
        info = SUITES[suite_id]
        env = SuiteEnv(
            config=config,
            suite_id=suite_id,
            rng=np.random.default_rng(suite_seed(config.seed, suite_id)),
            tower=tower,
            state=state,
        )
        try:
            checks = info.runner(env)
            results.append(SuiteResult(suite_id=suite_id, checks=checks))
        except Exception as exc:  # one suite's fault must not abort the others
            results.append(SuiteResult(suite_id=suite_id, checks=[],
                                       error=f"{type(exc).__name__}: {exc}"))
    return results


def run(config: ScenarioConfig = None) -> VerificationReport:
    """Execute the configured suites and assemble the report."""
    config = ScenarioConfig() if config is None else config
    started = time.perf_counter()
    results = _execute(config)
    return VerificationReport(
        scenario=config.to_dict(),
        suites=results,
        wall_clock_seconds=time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# Demo tables
# ---------------------------------------------------------------------------


def emit_demo_tables(config: ScenarioConfig = None) -> str:
    """Human-readable tables for the worked examples."""
    config = ScenarioConfig() if config is None else config
    tower = build_tower(config.tower_dims)
    state = sample_generic_state(tower, config.seed, profile=config.profile)
    rng = np.random.default_rng(suite_seed(config.seed, "demo"))
    lines = []

    lines.append("survival probability under U_t = E + t(1 - E)")
    lines.append(f"{'t':>12} {'Re(t)':>8} {'closed form':>14} {'operational':>14} {'|diff|':>10}")
    e = nk.random_projection(rng, tower.top_dim, tower.top_dim // 2)
    exc = random_excitation(state, rng, level=1)
    for t in (1.0, 1j, -1.0, np.exp(0.3j)):
        closed = pr.ut_probability(e, t, exc)
        obs = pr.ut_unitary(e, t, tower.levels)
        operational = transition_probability(exc, pr.apply_observable(obs, exc))
        lines.append(f"{complex(t):>12.3f} {np.real(t):>8.3f} {closed:>14.10f} "
                     f"{operational:>14.10f} {abs(closed - operational):>10.2e}")

    lines.append("")
    lines.append("tuned isometry convergence (weak / strong residuals per step)")
    v = _seeded_partial_isometry(rng, tower.top_dim, tower.top_dim // 3, tower.levels)
    family = pr.tuned_isometries(v, pr.increasing_projection_schedule(v.initial, steps=4),
                                 seed=suite_seed(config.seed, "demo:probes"))
    lines.append(f"{'step':>6} {'weak':>12} {'strong':>12}")
    for row in family.rows:
        lines.append(f"{row.index:>6} {row.weak:>12.3e} {row.strong:>12.3e}")

    lines.append("")
    lines.append("completeness sums over the orthogonal family")
    family_c = build_complete_family(state)
    lines.append(f"{'probe':>6} {'sum':>20} {'|1 - sum|':>12}")
    for k in range(8):
        probe = random_excitation(state, rng, level=tower.levels)
        total = completeness_sum(family_c, probe)
        lines.append(f"{k:>6} {total:>20.15f} {abs(total - 1.0):>12.2e}")
    return "\n".join(lines)
