"""Benchmark for ``funnelstates``: one workload per call, each in fresh children.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify_d16 --seed 1 --seconds 20 --trace 0

The parent starts, one at a time, ``SETUP_SAMPLES`` set-up-only children
(their median start-to-ready time is ``setup_s``) and then one measuring
child.  Every child gets one BLAS/OpenMP thread through its own environment;
the parent's environment is left alone.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The full result, with the environment it was measured in, is
also written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOADS = ("verify_d16", "verify_d32", "resolve_d16")
SETUP_SAMPLES = 15
DEADLINE_S = 170.0
# One BLAS/OpenMP thread on a 2-core host, and a fixed string-hash seed so
# that dict and set layouts do not change from one child to the next.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "PYTHONHASHSEED": "0"}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def git_sha() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class ChildFailed(Exception):
    pass


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def time_setup(cmd: list, env: dict, timeout: float) -> float:
    """Seconds from starting a set-up-only child until it reports ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd + ["--setup-only"], env=env, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed("set-up child timed out") from exc
    finally:
        _stop(proc)
    if line.strip() != "ready" or proc.returncode != 0:
        raise ChildFailed(f"set-up child failed (exit {proc.returncode})")
    return elapsed


def measure(cmd: list, env: dict, timeout: float) -> dict:
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed("measuring child timed out") from exc
    finally:
        _stop(proc)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or lines[0] != "ready":
        raise ChildFailed(f"measuring child failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description="funnelstates benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="probe seed: oracle samples and resolve_d16 probes")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scenario-seed", type=int, default=42,
                        help="master seed of the verify scenario and reference state "
                             "(pass another value for a held-out check)")
    args = parser.parse_args(argv)

    if not (SRC / "funnelstates" / "__init__.py").is_file():
        print(f"benchmark: no funnelstates sources under {SRC}", file=sys.stderr)
        return 2

    env = child_env()
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scenario-seed", str(args.scenario_seed)]

    def remaining() -> float:
        return DEADLINE_S - (time.perf_counter() - started)

    try:
        setups = [time_setup(cmd, env, remaining()) for _ in range(SETUP_SAMPLES)]
        child = measure(cmd, env, remaining())
    except ChildFailed as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        from spans import per_layer_names

        units = dict(per_layer_names())
        units.update({"trace.round_s.untraced": "s", "trace.round_s.traced": "s",
                      "trace.overhead": "ratio", "trace.spans": "count"})
        metrics = {name: {"value": child["per_layer"][name], "unit": unit}
                   for name, unit in units.items()}
    else:
        metrics = {
            "round_s": {"value": child["round_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB"},
        }
    summary = {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }

    record = dict(summary, workload=args.workload, seed=args.seed,
                  scenario_seed=args.scenario_seed, seconds=args.seconds, trace=args.trace,
                  git_sha=git_sha(), setup_samples=setups, rounds=child["rounds"],
                  round_times=child.get("round_times"), problems=child["problems"],
                  env=child["env"])
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=2) + "\n")
    for problem in child["problems"]:
        print(f"failed: {problem}")
    print("env " + json.dumps(dict(child["env"], git_sha=git_sha())))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
