"""Acceptance criteria, one test per criterion, at their stated tolerances.

Every criterion prints a single pass/fail line (run with `pytest -s` to see
them as they stream).  The measurements come from a full default-scenario
run: tower (2, 2, 4), doubled space dimension 256, master seed 42.
"""

import numpy as np
import pytest

from funnelstates.runner import ScenarioConfig, run


@pytest.fixture(scope="module")
def report():
    return run(ScenarioConfig())


@pytest.fixture(scope="module")
def checks(report):
    table = {}
    for suite in report.suites:
        assert suite.error is None, f"suite {suite.suite_id} failed to build: {suite.error}"
        for c in suite.checks:
            table[c.check_id] = c
    return table


def _criterion(num, description, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {description}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_criterion_01_lift(checks):
    phase = checks["lift/phase_recovery"]
    gap = checks["lift/injectivity_gap"]
    ok = phase.residual <= 1e-9 and gap.residual > 1e-6
    _criterion(1, "ray lift: phase recovery and injectivity", ok,
               f"phase {phase.residual:.2e}, min distance {gap.residual:.2e}")


def test_criterion_02_null_transfer(checks):
    c = checks["null_transfer/max_ratio"]
    _criterion(2, "null combinations transfer to operators", c.residual <= 1e-7,
               f"max ratio {c.residual:.2e}")


def test_criterion_03_extension_projections(checks):
    residuals = [c.residual for cid, c in checks.items()
                 if cid.startswith("min_projection/compression_identity")]
    ok = len(residuals) == 2 and max(residuals) <= 1e-10
    _criterion(3, "extension projections compress to the state", ok,
               f"worst {max(residuals):.2e}")


def test_criterion_04_extreme_points(checks):
    rank_one = checks["extreme_points/compression_rank_one"]
    collapse = checks["extreme_points/phase_collapse_passes"]
    rejected = checks["extreme_points/distinct_rejected"]
    ok = (rank_one.residual <= 1e-9 and collapse.status == "pass"
          and rejected.status == "pass"
          and rejected.witness["distance"] > 1e-6)
    _criterion(4, "excitations are extreme points", ok,
               f"second singular {rank_one.residual:.2e}, "
               f"rejection distance {rejected.witness['distance']:.2e}")


def test_criterion_05_transition_probabilities(checks):
    ok = (checks["fuchs/symmetry"].residual <= 1e-12
          and checks["fuchs/range"].residual <= 1e-12
          and checks["fuchs/bound_min_slack"].residual >= -1e-10
          and checks["fuchs/pure_equality"].residual <= 1e-9
          and checks["fuchs/mixed_strict_gap"].residual > 1e-3)
    _criterion(5, "transition probabilities and the quadratic bound", ok,
               f"min slack {checks['fuchs/bound_min_slack'].residual:.2e}, "
               f"mixed gap {checks['fuchs/mixed_strict_gap'].residual:.2e}")


def test_criterion_06_uhlmann(checks):
    ok = (checks["uhlmann/dominates"].residual >= -1e-10
          and checks["uhlmann/pure_equality"].residual <= 1e-9
          and checks["uhlmann/mixed_strict_gap"].residual > 1e-3)
    _criterion(6, "fidelity comparison dominates the intrinsic overlap", ok,
               f"min slack {checks['uhlmann/dominates'].residual:.2e}")


def test_criterion_07_completeness(checks):
    ok = (checks["completeness/size:main"].status == "pass"
          and checks["completeness/size:2x2"].status == "pass"
          and checks["completeness/sum:main"].residual <= 1e-8
          and checks["completeness/sum:2x2"].residual <= 1e-8)
    _criterion(7, "complete orthogonal families at both towers", ok,
               f"sum deviations {checks['completeness/sum:main'].residual:.2e} / "
               f"{checks['completeness/sum:2x2'].residual:.2e}")


def test_criterion_08_state_algebra(checks):
    ids = ("state_algebra/associativity", "state_algebra/involution_compat",
           "state_algebra/triple_product", "state_algebra/quadruple_product",
           "state_algebra/minimality", "state_algebra/kernel_multiplicative")
    worst = max(checks[i].residual for i in ids)
    _criterion(8, "the excitation span is a *-algebra", worst <= 1e-10,
               f"worst residual {worst:.2e}")


def test_criterion_09_spectral(checks):
    ok = (checks["spectral/reconstruction"].residual <= 1e-9
          and checks["spectral/orthogonality"].residual <= 1e-9
          and checks["spectral/mixture_weights_nonnegative"].residual >= -1e-10
          and checks["spectral/mixture_weight_sum"].residual <= 1e-9)
    _criterion(9, "spectral decomposition of symmetric elements", ok,
               f"reconstruction {checks['spectral/reconstruction'].residual:.2e}")


def test_criterion_10_duality_faithfulness(checks):
    pos = checks["duality/positivity"]
    faith = checks["duality/faithfulness_witnesses"]
    ok = pos.residual >= -1e-10 and faith.status == "pass"
    _criterion(10, "dual positivity and faithfulness witnesses", ok,
               f"min positivity {pos.residual:.2e}, "
               f"witnesses {faith.witness['found']}/{faith.witness['total']}")


def test_criterion_11_w_isomorphism(checks):
    ok = (checks["w_isomorphism/inner_products"].residual <= 1e-10
          and checks["w_isomorphism/intertwining"].residual <= 1e-9)
    _criterion(11, "kernel picture is a spatial isomorphism", ok,
               f"inner {checks['w_isomorphism/inner_products'].residual:.2e}, "
               f"intertwining {checks['w_isomorphism/intertwining'].residual:.2e}")


def test_criterion_12_dilation(checks):
    ok = (checks["dilation/unitarity"].residual <= 1e-12
          and checks["dilation/final_matches"].residual <= 1e-12
          and checks["dilation/tuned_envelope_monotone"].status == "pass")
    _criterion(12, "unitary dilation with monotone tuned tables", ok,
               f"unitarity {checks['dilation/unitarity'].residual:.2e}")


def test_criterion_13_tuned_detector(checks):
    leak = checks["detector/leak_bound"]
    prob = checks["detector/probability_bound"]
    rec = checks["detector/recovery_error"]
    ok = (leak.residual < 1e-3 and prob.residual < 4e-3
          and rec.status == "pass")
    _criterion(13, "tuned detectors within epsilon, observable recovery", ok,
               f"leak {leak.residual:.2e}, gap {prob.residual:.2e}, "
               f"recovery {rec.residual:.2e}")


def test_criterion_14_ut_closed_form(checks):
    c = checks["ut_form/closed_vs_operational"]
    _criterion(14, "two-projection closed form matches operations", c.residual <= 1e-12,
               f"worst {c.residual:.2e}")


def test_criterion_15_vacuum_detector(checks):
    ok = (checks["vacuum/silent_on_reference"].residual <= 1e-10
          and checks["vacuum/zero_response_on_vacuum"].status == "pass"
          and checks["vacuum/distance_witness"].status == "pass")
    _criterion(15, "vacuum detector silent on the reference only", ok,
               f"|omega(U)| {checks['vacuum/silent_on_reference'].residual:.2e}")


def test_criterion_16_commensurability(checks):
    ok = (checks["commensurability/clock_shift"].status == "pass"
          and checks["commensurability/random_rejected"].status == "pass"
          and checks["commensurability/random_residual"].residual > 1e-3)
    _criterion(16, "commensurability: cyclic pair and generic rejection", ok,
               f"min random residual {checks['commensurability/random_residual'].residual:.2e}")


def test_criterion_17_determinism(report):
    second = run(ScenarioConfig())

    def signature(rep):
        return [
            (s.suite_id, [(c.check_id, c.status, f"{c.residual:.16e}") for c in s.checks])
            for s in rep.suites
        ]

    ok = signature(report) == signature(second)
    _criterion(17, "identical default runs produce identical reports", ok)


def test_full_report_green(report):
    counts = report.counts()
    assert report.passed, f"default scenario has failures: {counts}"
    assert counts["fail"] == 0
