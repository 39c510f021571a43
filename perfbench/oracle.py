"""Independent numpy-only oracle for the benchmark's correctness checks.

Nothing here imports ``funnelstates``: every quantity is recomputed from the
reference density ``lam`` and plain operator matrices, so a fault in the
program's linear-algebra layer cannot hide behind the same fault in the check.

Conventions follow the package README: a level-``n`` operator embeds into the
top algebra as ``a (x) 1`` (left factor slowest), and the doubled-space vector
of an operator ``A`` is ``vec(A sqrt(lam))`` in C order.
"""

from __future__ import annotations

import numpy as np

# Absolute tolerances.  Probabilities, fidelities and completeness sums all
# live in [0, 1]; double precision reaches 1e-13 on these sizes, so these
# bounds flag real disagreement and not rounding.
PROB_TOL = 1e-9
FIDELITY_TOL = 1e-8
COMPLETENESS_TOL = 1e-8
ORTHO_TOL = 1e-9
DOMINANCE_SLACK = 1e-10


def embed(matrix: np.ndarray, top_dim: int) -> np.ndarray:
    """Embed a level matrix into the top algebra as ``a (x) 1``."""
    d = matrix.shape[0]
    if d == top_dim:
        return np.asarray(matrix, dtype=complex)
    return np.kron(matrix, np.eye(top_dim // d, dtype=complex))


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Square root of a Hermitian PSD matrix through ``np.linalg.eigh``."""
    vals, vecs = np.linalg.eigh((m + m.conj().T) / 2.0)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


class Oracle:
    """Reference computations on one reference density ``lam`` (D x D)."""

    def __init__(self, lam: np.ndarray):
        self.lam = np.array(lam, dtype=complex)
        self.dim = self.lam.shape[0]
        self.sqrt_lam = psd_sqrt(self.lam)
        self._qr_basis = None

    def expect(self, x: np.ndarray) -> complex:
        """omega(X) = tr(lam X) for a top-level X."""
        return complex(np.trace(self.lam @ x))

    def transition_probability(self, a: np.ndarray, b: np.ndarray) -> float:
        """|omega(A* B)|^2 / (omega(A* A) omega(B* B)) for top-level A, B."""
        ad = a.conj().T
        num = abs(self.expect(ad @ b)) ** 2
        return float(num / (self.expect(ad @ a).real * self.expect(b.conj().T @ b).real))

    def density(self, a: np.ndarray) -> np.ndarray:
        """Normalized top-algebra density of the excitation by A."""
        m = a @ self.sqrt_lam
        rho = m @ m.conj().T
        return rho / np.trace(rho).real

    def fidelity(self, a: np.ndarray, b: np.ndarray) -> float:
        """Uhlmann fidelity (tr |sqrt(rho_A) sqrt(rho_B)|)^2."""
        sa = psd_sqrt(self.density(a))
        sb = psd_sqrt(self.density(b))
        return float(np.sum(np.linalg.svd(sa @ sb, compute_uv=False)) ** 2)

    def unit_vector(self, a: np.ndarray) -> np.ndarray:
        """Normalized doubled-space vector vec(A sqrt(lam))."""
        v = (a @ self.sqrt_lam).ravel()
        return v / np.linalg.norm(v)

    def qr_basis(self) -> np.ndarray:
        """Orthonormal basis of the doubled space from one ``np.linalg.qr``.

        The generators are the matrix units times sqrt(lam), the same span
        the program's default complete family is built from.
        """
        if self._qr_basis is None:
            d = self.dim
            gens = np.zeros((d * d, d * d), dtype=complex)
            for i in range(d):
                for j in range(d):
                    unit = np.zeros((d, d), dtype=complex)
                    unit[i, j] = 1.0
                    gens[:, i * d + j] = (unit @ self.sqrt_lam).ravel()
            q, _ = np.linalg.qr(gens)
            self._qr_basis = q
        return self._qr_basis

    def family_matrix(self, member_ops) -> np.ndarray:
        """Columns vec(A_m sqrt(lam)) for top-level member operators."""
        return np.column_stack([(a @ self.sqrt_lam).ravel() for a in member_ops])


def family_orthonormality(v: np.ndarray) -> float:
    """max |V* V - 1| over the Gram matrix of the family columns."""
    gram = v.conj().T @ v
    return float(np.max(np.abs(gram - np.eye(gram.shape[0]))))


def check_pair(oracle: Oracle, a_top, b_top, p_prog: float, f_prog: float) -> list:
    """Compare one transition probability and one fidelity with the oracle.

    Returns the list of disagreements (empty when the pair agrees): the
    program against the oracle, and Uhlmann dominance F >= p on both sides.
    """
    problems = []
    p_ref = oracle.transition_probability(a_top, b_top)
    f_ref = oracle.fidelity(a_top, b_top)
    if not abs(p_prog - p_ref) <= PROB_TOL:
        problems.append(f"transition probability {p_prog!r} vs oracle {p_ref!r}")
    if not abs(f_prog - f_ref) <= FIDELITY_TOL:
        problems.append(f"fidelity {f_prog!r} vs oracle {f_ref!r}")
    if not f_prog >= p_prog - DOMINANCE_SLACK:
        problems.append(f"program fidelity {f_prog!r} below transition probability {p_prog!r}")
    if not f_ref >= p_ref - DOMINANCE_SLACK:
        problems.append(f"oracle fidelity {f_ref!r} below transition probability {p_ref!r}")
    return problems


def check_completeness(oracle: Oracle, family_v: np.ndarray, ortho_residual: float,
                       probe_top, sum_prog: float) -> list:
    """Check one completeness sum against the QR basis and the family itself.

    An orthonormal set of D^2 members satisfies ||V* x||^2 = ||x||^2 for every
    unit x; the QR basis shows the same for the oracle's own span.  The
    program's sum must equal ||V* x||^2 and both must be 1.
    """
    problems = []
    d2 = oracle.dim ** 2
    if family_v.shape[1] != d2:
        problems.append(f"family has {family_v.shape[1]} members, expected {d2}")
    if not ortho_residual <= ORTHO_TOL:
        problems.append(f"family orthonormality residual {ortho_residual:.3e}")
    x = oracle.unit_vector(probe_top)
    q = oracle.qr_basis()
    via_qr = float(np.linalg.norm(q.conj().T @ x) ** 2)
    via_family = float(np.linalg.norm(family_v.conj().T @ x) ** 2)
    if not abs(via_qr - 1.0) <= COMPLETENESS_TOL:
        problems.append(f"QR basis resolves the probe to {via_qr!r}")
    if not abs(via_family - 1.0) <= COMPLETENESS_TOL:
        problems.append(f"family resolves the probe to {via_family!r}")
    if not abs(sum_prog - via_family) <= COMPLETENESS_TOL:
        problems.append(f"completeness sum {sum_prog!r} vs oracle {via_family!r}")
    return problems
