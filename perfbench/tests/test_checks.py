"""The benchmark's own checks count wrong program outputs as failed operations.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import child  # noqa: E402
import oracle as orc  # noqa: E402
from spans import Tracer  # noqa: E402

import funnelstates  # noqa: E402
from funnelstates import OrthogonalFamily  # noqa: E402


@pytest.fixture(scope="module")
def scenario():
    return child.setup("resolve_d16", child.SCENARIO_SEED)


def run_round(state, family, seed=7):
    tally = child.Tally()
    child.ResolveWorkload(state, family, seed).round(tally)
    return tally


def test_unchanged_program_passes(scenario):
    tally = run_round(*scenario)
    assert tally.attempted == child.PROBES_PER_ROUND
    assert tally.failed == 0, tally.problems


def test_perturbed_probability_is_a_failed_operation(scenario, monkeypatch):
    exact = funnelstates.transition_probability
    monkeypatch.setattr(funnelstates, "transition_probability",
                        lambda a, b: exact(a, b) + 1e-6)
    tally = run_round(*scenario)
    assert tally.failed == tally.attempted == child.PROBES_PER_ROUND
    assert "oracle" in tally.problems[0]


def test_family_with_one_member_dropped_is_a_failed_operation(scenario):
    state, family = scenario
    short = OrthogonalFamily(members=family.members[1:], overlaps=family.overlaps[1:, 1:])
    tally = run_round(state, short)
    assert tally.failed == tally.attempted == child.PROBES_PER_ROUND
    assert "members" in tally.problems[0]


def test_pair_check_flags_dominance_violation():
    rng = np.random.default_rng(0)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    oracle = orc.Oracle(g @ g.conj().T / np.trace(g @ g.conj().T).real)
    a, b = (rng.standard_normal((4, 4)) for _ in range(2))
    p, f = oracle.transition_probability(a, b), oracle.fidelity(a, b)
    assert orc.check_pair(oracle, a, b, p, f) == []
    assert orc.check_pair(oracle, a, b, f + 1e-3, f)


def test_failed_check_in_report_is_a_failed_operation():
    doc = {"suites": [{"suite": f"s{i}", "error": None,
                       "checks": [{"id": f"s{i}/c", "status": "pass"}]}
                      for i in range(child.SUITE_COUNT)]}
    tally = child.Tally()
    digest = child.check_report(doc, 0, None, tally)
    assert (tally.attempted, tally.failed) == (child.SUITE_COUNT + 1, 0)

    doc["suites"][3]["checks"][0]["status"] = "fail"
    tally = child.Tally()
    child.check_report(doc, 1, digest, tally)
    # the failing check, and the report whose digest moved
    assert (tally.attempted, tally.failed) == (child.SUITE_COUNT + 1, 2)


def test_tracer_reaches_names_imported_by_runner(scenario):
    import funnelstates.excitations as excitations
    import funnelstates.runner as runner

    state, _ = scenario
    original = excitations.make_excitation
    tracer = Tracer()
    tracer.install()
    try:
        assert runner.make_excitation is not original
        runner.make_excitation(state, np.eye(state.dim))
    finally:
        tracer.uninstall()
    assert runner.make_excitation is original
    layer = tracer.reduce(rounds=1)
    assert layer["excitations.make_excitation.calls"] == 1
    assert layer["numkernel.as_cmatrix.calls"] >= 1
