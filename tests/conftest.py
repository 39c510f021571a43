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


# -- reference state algebra ---------------------------------------------
# The state-algebra element and its operations as they were written before
# elements became stacks: one element, two-dimensional factors, one thin SVD
# and one matrix-vector product per step.  Every stacked form, and every
# single form through it, must give their bits.


class ElementReference:
    """One element ``left @ core @ right^*``; ``terms`` is derived on first read."""

    def __init__(self, state, left, core, right):
        self.state, self.left, self.core, self.right = state, left, core, right
        self._terms = None

    @property
    def terms(self):
        if self._terms is None:
            self._terms = canonical_terms_reference(self)
        return self._terms

    def kernel_apply(self, x):
        return self.left @ (self.core @ (nk.dagger(self.right) @ x))

    def kernel_norm(self):
        return nk.frob(self.core)


def herm_eig_reference(m):
    """`numkernel.herm_eig` of one matrix: descending values, columns gathered by index, phases fixed."""
    m = nk.as_cmatrix(m)
    if nk.frob(m - nk.dagger(m)) > nk.CONTRACT_TOL * max(nk.frob(m), 1.0):
        raise ContractError("herm_eig requires a Hermitian matrix")
    vals, vecs = np.linalg.eigh((m + nk.dagger(m)) / 2.0)
    order = np.argsort(vals)[::-1]
    q = vecs[:, order]
    peaks = q[np.argmax(np.abs(q), axis=0), np.arange(q.shape[1])]
    phases = np.array([np.conj(a) / abs(a) if abs(a) > 0.0 else 1.0 for a in peaks], dtype=complex)
    return np.real(vals[order]), q * phases


def excitation_with_vector_reference(state, v) -> ExcitationState:
    """The top-level excitation of the vector v / ||v||."""
    mat = np.asarray(v, dtype=complex).reshape(state.dim, state.dim)
    norm_sq = float(np.real(np.vdot(mat, mat)))
    if norm_sq <= 1e-12:
        raise DegenerateExcitationError("operator annihilates the reference vector; excitation undefined")
    return ExcitationState(state, mat * (1.0 / math.sqrt(norm_sq)))


def orthonormal_basis_reference(v):
    u, s, wh = np.linalg.svd(v, full_matrices=False)
    keep = s > 1e-12 * np.max(s, initial=1.0)
    return u[:, keep], s[keep, None] * wh[keep]


def orthonormalised_reference(state, left, core, right) -> ElementReference:
    ql, bl = orthonormal_basis_reference(left)
    qr, br = (ql, bl) if right is left else orthonormal_basis_reference(right)
    return ElementReference(state, ql, bl @ core @ nk.dagger(br), qr)


def element_from_terms_reference(state, terms) -> ElementReference:
    vectors = np.array([exc.vector for _, exc in terms], dtype=complex).reshape(len(terms), -1).T
    core = np.diag(np.array([complex(c) for c, _ in terms], dtype=complex))
    return orthonormalised_reference(state, vectors, core, vectors)


def excitation_element_reference(exc) -> ElementReference:
    v = exc.vector[:, None]
    return ElementReference(exc.state, v, np.array([[1.0 + 0.0j]]), v)


def times_reference(a, b) -> ElementReference:
    return ElementReference(a.state, a.left, a.core @ (nk.dagger(a.right) @ b.left) @ b.core, b.right)


def dagger_reference(el) -> ElementReference:
    return ElementReference(el.state, el.right, nk.dagger(el.core), el.left)


def scale_reference(c, el) -> ElementReference:
    return ElementReference(el.state, el.left, complex(c) * el.core, el.right)


def add_reference(a, b) -> ElementReference:
    if a.left is b.left and a.right is b.right:
        return ElementReference(a.state, a.left, a.core + b.core, a.right)
    (ra, ca), (rb, cb) = a.core.shape, b.core.shape
    core = np.zeros((ra + rb, ca + cb), dtype=complex)
    core[:ra, :ca] = a.core
    core[ra:, ca:] = b.core
    left = np.hstack([a.left, b.left])
    right = left if a.left is a.right and b.left is b.right else np.hstack([a.right, b.right])
    return orthonormalised_reference(a.state, left, core, right)


def left_action_reference(op, el) -> ElementReference:
    """`bimodule_act("left", op, el)`: the right factor hit by (A* (x) 1) through `GenericState.act`."""
    adjoint = LocalOperator(op.level, nk.dagger(op.matrix))
    return orthonormalised_reference(el.state, el.left, el.core, el.state.act(adjoint, el.right))


def kernel_distance_reference(a, b) -> float:
    return add_reference(a, scale_reference(-1.0, b)).kernel_norm()


def support_form_reference(el):
    if el.left is el.right:
        return el.left, el.core
    basis, _ = orthonormal_basis_reference(np.hstack([el.left, el.right]))
    bh = nk.dagger(basis)
    return basis, (bh @ el.left) @ el.core @ nk.dagger(bh @ el.right)


def eigen_excitations_reference(state, basis, part, drop) -> list:
    if nk.frob(part) <= drop:
        return []
    vals, vecs = herm_eig_reference(part)
    return [(val, excitation_with_vector_reference(state, basis @ g))
            for val, g in zip(vals, vecs.T) if abs(val) > drop]


def canonical_terms_reference(el) -> tuple:
    basis, s_mat = support_form_reference(el)
    drop = 1e-12 * max(nk.frob(s_mat), 1.0)
    herm = eigen_excitations_reference(el.state, basis, (s_mat + nk.dagger(s_mat)) / 2.0, drop)
    anti = eigen_excitations_reference(el.state, basis, (s_mat - nk.dagger(s_mat)) / 2.0j, drop)
    return tuple(herm + [(1j * val, exc) for val, exc in anti])


def spectral_decompose_reference(el) -> list:
    basis, s_mat = support_form_reference(el)
    scale_f = max(nk.frob(s_mat), 1.0)
    asym = nk.frob(s_mat - nk.dagger(s_mat))
    if asym > 1e-10 * scale_f:
        raise ContractError(f"element is not symmetric: ||psi - dagger(psi)|| = {asym:.3e}")
    return eigen_excitations_reference(el.state, basis, (s_mat + nk.dagger(s_mat)) / 2.0, 1e-12 * scale_f)


def dual_state_apply_reference(exc, el) -> complex:
    v = exc.vector
    return complex(np.vdot(v, el.kernel_apply(v)))


def gns_inner_reference(a, b) -> complex:
    v = a.state.omega_vector
    return complex(np.vdot(a.kernel_apply(v), b.kernel_apply(v)))


def w_isomorphism_reference(el) -> np.ndarray:
    omega = el.state.omega_vector
    out = np.zeros_like(omega)
    for c, exc in el.terms:
        v = exc.vector
        out = out + c * np.vdot(v, omega) * v
    return out


def element_reference(state, rng, n_terms=2) -> ElementReference:
    """`SuiteEnv.element` as it drew: per term, two scalar normals and then a top-level Gaussian excitation."""
    terms = []
    for _ in range(n_terms):
        c = complex(rng.standard_normal(), rng.standard_normal())
        terms.append((c, random_excitation_reference(state, rng, level=state.tower.levels)))
    return element_from_terms_reference(state, terms)


# -- reference state-algebra loops -----------------------------------------
# The state-algebra suites' sample loops as they ran before they were
# stacked, on the reference elements, drawing in the same order.


def state_algebra_loops_reference(state, rng, count, probes) -> dict:
    """`state_algebra`'s associativity, involution, multiplicativity, closed-form and bimodule loops."""
    out = dict.fromkeys(("associativity", "involution_compat", "involution_squared", "kernel_multiplicative",
                         "idempotent", "minimality", "triple_product", "quadruple_product",
                         "bimodule_assoc", "bimodule_eval"), 0.0)
    for _ in range(count):
        p1, p2, p3 = (element_reference(state, rng) for _ in range(3))
        left = times_reference(times_reference(p1, p2), p3)
        right = times_reference(p1, times_reference(p2, p3))
        out["associativity"] = max(out["associativity"], kernel_distance_reference(left, right))
    for _ in range(20):
        p1, p2 = element_reference(state, rng), element_reference(state, rng)
        prod = times_reference(p1, p2)
        out["involution_compat"] = max(out["involution_compat"], kernel_distance_reference(
            dagger_reference(prod), times_reference(dagger_reference(p2), dagger_reference(p1))))
        out["involution_squared"] = max(out["involution_squared"], kernel_distance_reference(
            dagger_reference(dagger_reference(p1)), p1))
        scale_f = max(prod.kernel_norm(), 1.0)
        for x in probes:
            gap = np.linalg.norm(prod.kernel_apply(x) - p1.kernel_apply(p2.kernel_apply(x)))
            out["kernel_multiplicative"] = max(out["kernel_multiplicative"], float(gap) / scale_f)
    for _ in range(20):
        a = random_excitation_reference(state, rng, level=1)
        c = random_excitation_reference(state, rng, level=2)
        b = random_excitation_reference(state, rng, level=1)
        dd = random_excitation_reference(state, rng, level=2)
        pa, pb, pc, pd = (excitation_element_reference(x) for x in (a, b, c, dd))
        out["idempotent"] = max(out["idempotent"], kernel_distance_reference(times_reference(pa, pa), pa))
        chain = times_reference(times_reference(pa, pc), pa)
        out["minimality"] = max(out["minimality"], kernel_distance_reference(
            chain, scale_reference(transition_probability_reference(a, c), pa)))
        triple = times_reference(times_reference(pa, pb), pc)
        quad = times_reference(triple, pd)
        ab, bc, ca = overlap_reference(a, b), overlap_reference(b, c), overlap_reference(c, a)
        cd, da = overlap_reference(c, dd), overlap_reference(dd, a)
        eye = LocalOperator(1, np.eye(state.tower.dim_at(1), dtype=complex))
        value = [complex(np.trace(el.core @ nk.dagger(el.right) @ state.act(eye, el.left))) for el in (triple, quad)]
        out["triple_product"] = max(out["triple_product"], abs(value[0] - ab * bc * ca))
        out["quadruple_product"] = max(out["quadruple_product"], abs(value[1] - ab * bc * cd * da))
    for _ in range(2):  # the orthogonal pair's two top-level draws
        rng.standard_normal((2, state.dim, state.dim))
    d1 = state.tower.dim_at(1)
    for _ in range(10):
        psi = element_reference(state, rng)
        a_op = LocalOperator(1, nk.random_complex_matrix(rng, d1))
        b_op = LocalOperator(1, nk.random_complex_matrix(rng, d1))
        lhs = left_action_reference(a_op, left_action_reference(b_op, psi))
        rhs = left_action_reference(LocalOperator(1, b_op.matrix @ a_op.matrix), psi)
        out["bimodule_assoc"] = max(out["bimodule_assoc"], kernel_distance_reference(lhs, rhs))
        exc = random_excitation_reference(state, rng, level=1)
        c_op = LocalOperator(1, nk.random_complex_matrix(rng, d1))
        acted = left_action_reference(a_op, excitation_element_reference(exc))
        direct = exc.evaluate(LocalOperator(1, a_op.matrix @ c_op.matrix))
        value = complex(np.trace(acted.core @ nk.dagger(acted.right) @ state.act(c_op, acted.left)))
        out["bimodule_eval"] = max(out["bimodule_eval"], abs(value - direct))
    return out


def w_isomorphism_loops_reference(state, rng, count) -> tuple:
    """`w_isomorphism`'s inner-product and intertwining loops."""
    omega = state.omega_vector
    worst_inner = 0.0
    for _ in range(count):
        p1, p2 = element_reference(state, rng), element_reference(state, rng)
        gns = gns_inner_reference(p1, p2)
        w_img = np.vdot(w_isomorphism_reference(p1), w_isomorphism_reference(p2))
        chain = 0.0 + 0.0j
        for cl, al in p1.terms:
            for cm, am in p2.terms:
                chain += (np.conj(cl) * cm * np.vdot(omega, al.vector)
                          * overlap_reference(al, am) * np.vdot(am.vector, omega))
        worst_inner = max(worst_inner, abs(gns - w_img), abs(gns - chain))
    worst_int = 0.0
    for _ in range(20):
        psi, phi = element_reference(state, rng), element_reference(state, rng)
        lhs = w_isomorphism_reference(times_reference(psi, phi))
        rhs = psi.kernel_apply(w_isomorphism_reference(phi))
        worst_int = max(worst_int, float(np.linalg.norm(lhs - rhs)))
    return worst_inner, worst_int


def duality_loops_reference(state, rng, count) -> tuple:
    """`duality`'s transition-link, positivity and Gram-oracle loops."""
    levels = state.tower.levels
    worst_link = 0.0
    for _ in range(30):
        level = 1 + int(rng.integers(levels))
        a = random_excitation_reference(state, rng, level=level)
        b = random_excitation_reference(state, rng, level=level)
        val = dual_state_apply_reference(a, excitation_element_reference(b))
        worst_link = max(worst_link, abs(val - transition_probability_reference(a, b)))
    rng.standard_normal((2, state.tower.dim_at(1), state.tower.dim_at(1)))  # the projection probe
    min_pos = np.inf
    worst_oracle = 0.0
    for _ in range(count):
        psi = element_reference(state, rng)
        probe = random_excitation_reference(state, rng, level=1)
        val = dual_state_apply_reference(probe, times_reference(dagger_reference(psi), psi))
        min_pos = min(min_pos, float(np.real(val)))
        coeffs = np.array([c for c, _ in psi.terms])
        gram = np.zeros((len(coeffs), len(coeffs)), dtype=complex)
        for k, (_, bk) in enumerate(psi.terms):
            for l, (_, bl) in enumerate(psi.terms):
                gram[k, l] = overlap_reference(probe, bk) * overlap_reference(bk, bl) * overlap_reference(bl, probe)
        worst_oracle = max(worst_oracle, abs(val - np.conj(coeffs) @ gram @ coeffs))
    return worst_link, min_pos, worst_oracle


def spectral_loops_reference(state, rng, count) -> tuple:
    """`spectral`'s reconstruction, orthogonality and mixture-weight loops."""
    worst_recon = 0.0
    worst_orth = 0.0
    for _ in range(count):
        p = element_reference(state, rng, n_terms=3)
        sym = scale_reference(0.5, add_reference(p, dagger_reference(p)))
        pairs = spectral_decompose_reference(sym)
        worst_recon = max(worst_recon, kernel_distance_reference(element_from_terms_reference(state, pairs), sym))
        for i in range(len(pairs)):
            for j in range(i + 1, len(pairs)):
                worst_orth = max(worst_orth, transition_probability_reference(pairs[i][1], pairs[j][1]))
    min_weight = np.inf
    worst_sum = 0.0
    for _ in range(count):
        k = 2 + int(rng.integers(3))
        probs = rng.random(k)
        probs /= probs.sum()
        terms = [(p, random_excitation_reference(state, rng, level=1 + int(rng.integers(state.tower.levels))))
                 for p in probs]
        weights = np.array([float(w) for w, _ in spectral_decompose_reference(element_from_terms_reference(state, terms))])
        min_weight = min(min_weight, float(np.min(weights)))
        worst_sum = max(worst_sum, abs(float(np.sum(weights)) - 1.0))
    return worst_recon, worst_orth, min_weight, worst_sum
