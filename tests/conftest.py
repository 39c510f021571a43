import cmath
import math

import numpy as np
import pytest

from funnelstates import (ContractError, DegenerateExcitationError, GenericityViolationError, LocalOperator,
                          NotSameRayError, build_tower, sample_generic_state)
from funnelstates import numkernel as nk
from funnelstates.excitations import OP_RECOVERY_TOL, STATE_EQ_TOL, ExcitationState
from funnelstates.funnel import RAY_EQ_TOL, matrix_units
from funnelstates.runner import suite_seed


def two_draw_complex_matrix(rng, rows: int, cols=None) -> np.ndarray:
    """Reference for `numkernel.random_complex_matrix`: two (rows, cols) normal draws, real then imaginary."""
    cols = rows if cols is None else cols
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def random_hermitian(rng, n: int) -> np.ndarray:
    """Seeded Hermitian test matrix (G + G*) / 2."""
    g = nk.random_complex_matrix(rng, n)
    return (g + nk.dagger(g)) / 2.0


@pytest.fixture(scope="session")
def tower():
    return build_tower((2, 2, 4))


@pytest.fixture(scope="session")
def state(tower):
    return sample_generic_state(tower, seed=42)


@pytest.fixture(scope="session")
def small_state():
    return sample_generic_state(build_tower((2, 2)), seed=7)


@pytest.fixture(scope="session")
def pure_state(tower):
    return sample_generic_state(tower, seed=11, profile="pure")


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def kron_embed(tower, level: int, a, target=None) -> np.ndarray:
    """Dense reference for a (x) 1 at level `target` (default: top): np.kron(a, eye(k))."""
    target = tower.levels if target is None else target
    return np.kron(a, np.eye(tower.dim_at(target) // tower.dim_at(level)))


def kernel(el) -> np.ndarray:
    """Dense reference for a state-algebra element's kernel on the doubled space: left core right^*."""
    return el.left @ el.core @ nk.dagger(el.right)


def extension_residual_sweep(state, psi) -> float:
    """Dense reference for `extension_projection_residual`: the matrix-unit loop over level n,
    max ||E (C (x) 1) E - omega(C) E||_F with E = |psi><psi| built as a D_{n+1} x D_{n+1} matrix."""
    n = state.tower.level_of(len(psi)) - 1
    e = np.outer(psi, np.conj(psi))
    worst = 0.0
    for unit in matrix_units(state.tower.dim_at(n)):
        # E (u (x) 1) = ((u* (x) 1) E*)*: a 0/1 unit selects rows, so both forms are exact
        e_u = nk.dagger(state.act(LocalOperator(n, nk.dagger(unit)), nk.dagger(e)))
        omega_c = state.expect(LocalOperator(n, unit))
        worst = max(worst, nk.frob(e_u @ e - omega_c * e))
    return worst


# -- reference single forms -----------------------------------------------
# The single-excitation reads as they were written before the library made
# them one-member stacks: one excitation or one pair, with np.vdot and
# two-dimensional decompositions.  Every stacked form, and every single form
# through it, must give their bits and raise their errors.


def make_excitation_reference(state, op: LocalOperator) -> ExcitationState:
    """`make_excitation` of a validated operator: act on sqrt(lam), then scale both by 1 / ||mat||."""
    mat = state.act(op, state.sqrt_lam)
    norm_sq = float(np.real(np.vdot(mat, mat)))
    if not math.isfinite(norm_sq):
        raise ContractError(f"excitation norm is not finite: ||A.omega||^2 = {norm_sq}")
    if norm_sq <= 1e-12:
        raise DegenerateExcitationError("operator annihilates the reference vector; excitation undefined")
    scale = 1.0 / np.sqrt(norm_sq)
    return ExcitationState(state, mat * scale, LocalOperator._validated(op.level, op.matrix * scale))


def random_excitation_reference(state, rng, level: int) -> ExcitationState:
    d = state.tower.dim_at(level)
    return make_excitation_reference(state, LocalOperator._validated(level, nk.random_complex_matrix(rng, d)))


def overlap_reference(a, b) -> complex:
    value = complex(np.vdot(a.vector, b.vector))
    if not cmath.isfinite(value):
        raise ContractError(f"overlap is not finite: {value}")
    return value


def transition_probability_reference(a, b) -> float:
    p = abs(overlap_reference(a, b)) ** 2
    if not p <= 1.0 + 1e-12:
        raise ContractError(f"transition probability {p!r} is not at most 1")
    return float(min(p, 1.0))


def top_distance_reference(a, b) -> float:
    """`norm_distance(a, b, scope="top")`: the trace norm of rho_A - rho_B from its eigenvalues."""
    diff = nk.as_cmatrix(a.rho - b.rho)
    return float(np.abs(np.linalg.eigvalsh(diff)).sum())


def uhlmann_fidelity_reference(a, b) -> float:
    m = nk.as_cmatrix(nk.dagger(a.mat) @ b.mat)
    return float(float(np.linalg.svd(m, compute_uv=False).sum()) ** 2)


def lift_phase_reference(a, b) -> complex:
    """`lift_phase` without the Frobenius screen: the exact distance, then the overlap, then B = t A."""
    dist = top_distance_reference(a, b)
    if dist > STATE_EQ_TOL:
        raise NotSameRayError(f"states differ by {dist:.3e} in functional norm", distance=dist)
    t = overlap_reference(a, b)
    if nk.frob(b.mat - t * a.mat) > OP_RECOVERY_TOL:
        raise GenericityViolationError(
            f"equal states but |omega(A*B)| = {abs(t):.12f}: the representatives are not "
            "phase multiples, so the reference state fails the lift property"
        )
    return t


# -- reference sample loops ------------------------------------------------
# The suites' sample loops as they ran before they were stacked: one
# excitation, one pair and one single-form read at a time, drawing in the
# same order.  The stacked suites must reproduce their results bit for bit.


def fuchs_slack_reference(a, b) -> float:
    dist = top_distance_reference(a, b)
    return 1.0 - 0.25 * dist**2 - transition_probability_reference(a, b)


def fuchs_stats_reference(state, rng, n):
    """`runner._fuchs_stats`, one pair at a time."""
    worst_sym = 0.0
    worst_chain = 0.0
    min_slack = np.inf
    max_slack = -np.inf
    raw_range = 0.0
    for _ in range(n):
        a = random_excitation_reference(state, rng, level=1 + int(rng.integers(state.tower.levels)))
        b = random_excitation_reference(state, rng, level=a.level)
        p_ab = abs(overlap_reference(a, b)) ** 2
        p_ba = abs(overlap_reference(b, a)) ** 2
        worst_sym = max(worst_sym, abs(p_ab - p_ba))
        raw_range = max(raw_range, -p_ab, p_ab - 1.0)
        reduced = abs(state.expect(LocalOperator(a.level, nk.dagger(a.op.matrix) @ b.op.matrix))) ** 2
        worst_chain = max(worst_chain, abs(reduced - p_ab))
        slack = fuchs_slack_reference(a, b)
        min_slack = min(min_slack, slack)
        max_slack = max(max_slack, slack)
    return worst_sym, worst_chain, raw_range, min_slack, max_slack


def pure_pairs_reference(env):
    """`runner._pure_pairs`, one pair of excitations at a time."""
    pure = env.derived_state("pure", "pure")
    rng = np.random.default_rng(suite_seed(env.config.seed, f"{env.suite_id}:pure-pairs"))
    for _ in range(50):
        yield random_excitation_reference(pure, rng, level=1), random_excitation_reference(pure, rng, level=2)


def uhlmann_gaps_reference(state, rng, n) -> list:
    """The `uhlmann` suite's fidelity-minus-transition gaps, one pair at a time."""
    gaps = []
    for _ in range(n):
        a = random_excitation_reference(state, rng, level=1 + int(rng.integers(state.tower.levels)))
        b = random_excitation_reference(state, rng, level=a.level)
        gaps.append(uhlmann_fidelity_reference(a, b) - transition_probability_reference(a, b))
    return gaps


def lift_loops_reference(state, rng, n):
    """The `lift` suite's phase-recovery worst and injectivity minimum, one pair at a time."""
    levels = state.tower.levels
    worst_phase = 0.0
    for k in range(n):
        level = 1 + (k % (levels - 1))
        a = random_excitation_reference(state, rng, level=level)
        t = np.exp(2j * np.pi * rng.random())
        b = make_excitation_reference(state, LocalOperator(level=level, matrix=t * a.op.matrix))
        worst_phase = max(worst_phase, abs(lift_phase_reference(a, b) - t))
    min_dist = np.inf
    for _ in range(n):
        a, b = random_excitation_reference(state, rng, level=1), random_excitation_reference(state, rng, level=1)
        min_dist = min(min_dist, top_distance_reference(a, b))
    return worst_phase, min_dist


def genericity_pairs_reference(state, trials, rng) -> dict:
    """`check_genericity`'s pair loop, one pair at a time: level -> (least distance, its kind)."""
    least = {}
    for level in range(1, state.tower.levels + 1):
        d = state.tower.dim_at(level)
        worst, worst_kind = np.inf, None
        for trial in range(max(trials, 2)):
            kind, draw = (("unitary", nk.haar_unitary) if trial % 2
                          else ("gaussian", nk.random_complex_matrix))
            a, b = draw(rng, d), draw(rng, d)
            try:
                exc_a = make_excitation_reference(state, LocalOperator(level, a))
                exc_b = make_excitation_reference(state, LocalOperator(level, b))
            except DegenerateExcitationError:
                continue
            ca, cb = exc_a.canonical_mat, exc_b.canonical_mat
            if nk.frob(ca - cb) <= RAY_EQ_TOL * nk.frob(ca):
                continue
            gap = top_distance_reference(exc_a, exc_b)
            if gap < worst:
                worst, worst_kind = gap, kind
        least[level] = (worst, worst_kind)
    return least
