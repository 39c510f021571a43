import numpy as np
import pytest

from funnelstates import build_tower, sample_generic_state
from funnelstates import numkernel as nk


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
