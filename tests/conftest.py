import numpy as np
import pytest

from funnelstates import LocalOperator, build_tower, sample_generic_state
from funnelstates import numkernel as nk
from funnelstates.funnel import matrix_units


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
