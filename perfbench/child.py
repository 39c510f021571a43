"""One benchmark workload in one process.

Started by ``run.py`` with BLAS threads pinned in its environment.  The child
imports ``funnelstates``, builds the tower and samples the reference state
(and on ``resolve_d16`` builds the complete family), then prints ``ready``.
With ``--setup-only`` it exits there; otherwise it runs whole rounds of the
workload for the requested time, checks every output and prints one JSON
line with its counts and timings.

Rounds:
  verify_*     one ``funnelstates verify`` scenario through the CLI entry
               point, report writing included;
  resolve_d16  ``PROBES_PER_ROUND`` probes, each one ``completeness_sum``
               against the family plus one ``uhlmann_fidelity`` versus
               ``transition_probability`` comparison with a family member.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import oracle as orc
from spans import Tracer

WORKLOADS = {
    "verify_d16": ("verify", (2, 2, 4)),
    "verify_d32": ("verify", (2, 2, 8)),
    "resolve_d16": ("resolve", (2, 2, 4)),
}
SCENARIO_SEED = 42
PROFILE = "random_full_rank"
SUITE_COUNT = 17
PROBES_PER_ROUND = 12          # four at each level of a three-level tower
ORACLE_PAIRS_PER_ROUND = 4     # verify workloads: fidelity/transition pairs
ORACLE_PROBES_PER_ROUND = 2    # verify workloads: completeness probes
MIN_VERIFY_ROUNDS = 2          # two reports are needed to compare digests

OUT_DIR = Path(__file__).resolve().parent / "out"


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def report_digest(doc: dict) -> str:
    """sha256 of the report document without its wall clock."""
    doc = dict(doc)
    doc.pop("wall_clock_seconds", None)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def random_operator(rng, d: int) -> np.ndarray:
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append("; ".join(problems))


# ---------------------------------------------------------------------------
# verify workloads
# ---------------------------------------------------------------------------


def check_report(doc: dict, exit_code: int, first_digest, tally: Tally) -> str:
    """Count one operation per check and per suite that raised, plus one for
    the report as a whole (exit code, suite list, digest against round one)."""
    problems = []
    suites = doc.get("suites", [])
    failed_before = tally.failed
    for suite in suites:
        if suite.get("error") is not None:
            tally.op([f"suite {suite.get('suite')} raised: {suite['error']}"])
            continue
        if not suite.get("checks"):
            problems.append(f"suite {suite.get('suite')} reported no checks")
        for check in suite["checks"]:
            tally.op([f"{check['id']} {check['status']}"] if check["status"] == "fail" else [])
    if len(suites) != SUITE_COUNT:
        problems.append(f"{len(suites)} suites reported, expected {SUITE_COUNT}")
    expected_code = 0 if tally.failed == failed_before else 1
    if exit_code != expected_code:
        problems.append(f"exit code {exit_code}, expected {expected_code}")
    digest = report_digest(doc)
    if first_digest is not None and digest != first_digest:
        problems.append(f"report digest {digest[:12]} differs from round one {first_digest[:12]}")
    tally.op(problems)
    return digest


def verify_oracle(state, family, oracle, family_v, ortho, seed: int, round_index: int,
                  tally: Tally) -> None:
    """Seeded oracle samples for one verify round, on the scenario's state."""
    from funnelstates import (LocalOperator, completeness_sum, make_excitation,
                              transition_probability, uhlmann_fidelity)

    tower = state.tower
    top = tower.top_dim
    rng = np.random.default_rng([seed, round_index])
    for k in range(ORACLE_PAIRS_PER_ROUND):
        la = 1 + k % tower.levels
        lb = 1 + int(rng.integers(tower.levels))
        a = random_operator(rng, tower.dim_at(la))
        b = random_operator(rng, tower.dim_at(lb))
        ea = make_excitation(state, LocalOperator(level=la, matrix=a))
        eb = make_excitation(state, LocalOperator(level=lb, matrix=b))
        tally.op(orc.check_pair(oracle, orc.embed(a, top), orc.embed(b, top),
                                transition_probability(ea, eb), uhlmann_fidelity(ea, eb)))
    for k in range(ORACLE_PROBES_PER_ROUND):
        level = 1 + (k + round_index) % tower.levels
        p = random_operator(rng, tower.dim_at(level))
        probe = make_excitation(state, LocalOperator(level=level, matrix=p))
        tally.op(orc.check_completeness(oracle, family_v, ortho, orc.embed(p, top),
                                        completeness_sum(family, probe)))


class VerifyWorkload:
    def __init__(self, dims, state, seed: int, tag: str):
        from funnelstates import cli

        self.cli = cli
        self.state = state
        self.seed = seed
        OUT_DIR.mkdir(exist_ok=True)
        self.config_path = OUT_DIR / f"{tag}-{os.getpid()}-config.json"
        self.report_path = OUT_DIR / f"{tag}-{os.getpid()}-report.json"
        self.config_path.write_text(json.dumps(
            {"tower_dims": list(dims), "seed": state.seed, "profile": PROFILE}))
        self.first_digest = None
        self.rounds = 0

    def round(self, tally: Tally) -> float:
        argv = ["verify", "--config", str(self.config_path), "--out", str(self.report_path)]
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            code = self.cli.main(argv)
        elapsed = time.perf_counter() - t0
        doc = json.loads(self.report_path.read_text())
        digest = check_report(doc, code, self.first_digest, tally)
        self.first_digest = self.first_digest or digest
        self.rounds += 1
        return elapsed

    def finish(self, tally: Tally) -> None:
        """Oracle samples for every round run, once the timing is over."""
        from funnelstates import build_complete_family

        family = build_complete_family(self.state)
        oracle = orc.Oracle(self.state.lam)
        family_v = oracle.family_matrix([m.op.matrix for m in family.members])
        ortho = orc.family_orthonormality(family_v)
        for r in range(self.rounds):
            verify_oracle(self.state, family, oracle, family_v, ortho, self.seed, r, tally)
        for path in (self.config_path, self.report_path):
            path.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# resolve workload
# ---------------------------------------------------------------------------


class ResolveWorkload:
    def __init__(self, state, family, seed: int):
        self.state = state
        self.family = family
        self.rng = np.random.default_rng(seed)
        self.oracle = orc.Oracle(state.lam)
        self.family_v = self.oracle.family_matrix([m.op.matrix for m in family.members])
        self.ortho = orc.family_orthonormality(self.family_v)
        self.oracle.qr_basis()

    def round(self, tally: Tally) -> float:
        # Looked up per round so that the tracer's wrappers are the ones called.
        from funnelstates import completeness_sum, transition_probability, uhlmann_fidelity
        from funnelstates.excitations import random_excitation

        state, family, rng = self.state, self.family, self.rng
        levels = state.tower.levels
        results = []
        t0 = time.perf_counter()
        for k in range(PROBES_PER_ROUND):
            probe = random_excitation(state, rng, level=1 + k % levels)
            total = completeness_sum(family, probe)
            member = family.members[int(rng.integers(len(family.members)))]
            results.append((probe, member, total, uhlmann_fidelity(probe, member),
                            transition_probability(probe, member)))
        elapsed = time.perf_counter() - t0
        self.check(results, tally)
        return elapsed

    def check(self, results, tally: Tally) -> None:
        top = self.state.tower.top_dim
        for probe, member, total, fidelity, prob in results:
            probe_top = orc.embed(probe.op.matrix, top)
            tally.op(orc.check_completeness(self.oracle, self.family_v, self.ortho,
                                            probe_top, total)
                     + orc.check_pair(self.oracle, probe_top, member.op.matrix,
                                      prob, fidelity))

    def finish(self, tally: Tally) -> None:
        pass


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def setup(workload: str, scenario_seed: int):
    import funnelstates as fs

    kind, dims = WORKLOADS[workload]
    tower = fs.build_tower(dims)
    state = fs.sample_generic_state(tower, scenario_seed, profile=PROFILE)
    family = fs.build_complete_family(state) if kind == "resolve" else None
    return state, family


def run_rounds(work, tally: Tally, seconds: float, min_rounds: int) -> list:
    times = []
    start = time.perf_counter()
    while len(times) < min_rounds or time.perf_counter() - start < seconds:
        times.append(work.round(tally))
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scenario-seed", type=int, default=SCENARIO_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    state, family = setup(args.workload, args.scenario_seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    kind, dims = WORKLOADS[args.workload]
    if kind == "verify":
        work = VerifyWorkload(dims, state, args.seed, args.workload)
        min_rounds = MIN_VERIFY_ROUNDS
    else:
        work = ResolveWorkload(state, family, args.seed)
        min_rounds = 1
    tally = Tally()
    result = {"env": environment()}
    if args.trace:
        # Half the time untraced, half traced: the ratio of the two medians
        # is the tracing overhead.
        plain = run_rounds(work, tally, args.seconds / 2, 1)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_rounds(work, tally, args.seconds / 2, 1)
        finally:
            tracer.uninstall()
        per_layer = tracer.reduce(len(traced))
        per_layer["trace.round_s.untraced"] = statistics.median(plain)
        per_layer["trace.round_s.traced"] = statistics.median(traced)
        per_layer["trace.overhead"] = statistics.median(traced) / statistics.median(plain) - 1.0
        per_layer["trace.spans"] = tracer.span_count / len(traced)
        result["per_layer"] = per_layer
        result["rounds"] = len(plain) + len(traced)
    else:
        times = run_rounds(work, tally, args.seconds, min_rounds)
        result["round_s"] = statistics.median(times)
        result["round_times"] = times
        result["rounds"] = len(times)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    work.finish(tally)
    result.update(attempted=tally.attempted, failed=tally.failed, problems=tally.problems)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
