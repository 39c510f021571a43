"""Call tracing from outside the program, for the benchmark's per-layer numbers.

The tracer replaces chosen public functions with wrappers in every
``funnelstates`` module namespace that binds them: ``runner`` imports
``make_excitation``, ``build_complete_family`` and others by name, so
patching only the defining module would miss those calls.  Suites are
reached through the ``runner.SUITES`` registry and are wrapped there.

Every wrapped call is one span: its name, the enclosing traced span and its
start and end.  Spans are kept in flat arrays and reduced at the end: a
span's self time is its duration minus the time covered by its traced
children.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
import time
from array import array

# Layer functions wrapped by module; primitives is wrapped whole (every
# public function it defines) and reported as one self-time sum.
LAYER_FUNCTIONS = {
    "numkernel": ("gram_schmidt", "herm_eig", "as_cmatrix", "sqrtm_psd"),
    "transitions": ("uhlmann_fidelity", "transition_probability",
                    "completeness_sum", "build_complete_family"),
    "excitations": ("random_excitation", "make_excitation"),
    "statealgebra": ("canonicalize", "times", "add", "spectral_decompose",
                     "faithfulness_probe"),
    "funnel": ("build_tower", "sample_generic_state", "check_genericity"),
}

SUITE_IDS = (
    "lift", "null_transfer", "min_projection", "extreme_points", "fuchs",
    "uhlmann", "completeness", "state_algebra", "spectral", "duality",
    "w_isomorphism", "dilation", "detector", "ut_form", "vacuum",
    "commensurability", "determinism",
)

# Extra counts recorded at the call boundary: name -> (metric, fn(args, result)).
_EXTRAS = {
    "numkernel.gram_schmidt": (
        ("vectors_in", lambda args, kwargs, result: len(args[0] if args else kwargs["vectors"])),
        ("vectors_kept", lambda args, kwargs, result: len(result.vectors)),
    ),
    "statealgebra.canonicalize": (
        ("terms_out", lambda args, kwargs, result: len(result.terms)),
    ),
}


def per_layer_names() -> list:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for module, names in LAYER_FUNCTIONS.items():
        for fn in names:
            span = f"{module}.{fn}"
            out.append((f"{span}.calls", "count"))
            out.append((f"{span}.self_s", "s"))
            for extra, _ in _EXTRAS.get(span, ()):
                out.append((f"{span}.{extra}", "count"))
    out.append(("primitives.self_s", "s"))
    out += [(f"runner.suite.{sid}.s", "s") for sid in SUITE_IDS]
    out.append(("runner.report.s", "s"))
    return out


class Tracer:
    """Installs span-recording wrappers and reduces the spans afterwards."""

    def __init__(self):
        self._names = []
        self._name_ids = {}
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_t0 = array("d")
        self._span_t1 = array("d")
        self._stack = [-1]
        self._extras = {}
        self._patches = []

    # -- wrapping ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        names, parents = self._span_name, self._span_parent
        t0s, t1s, stack = self._span_t0, self._span_t1, self._stack
        clock = time.perf_counter
        extras = _EXTRAS.get(name, ())
        totals = self._extras

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            t1s.append(0.0)
            stack.append(idx)
            t0s.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1s[idx] = clock()
                stack.pop()
            for metric, count in extras:
                key = f"{name}.{metric}"
                totals[key] = totals.get(key, 0) + count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _patch_everywhere(self, name: str, original) -> None:
        """Rebind `original` to its wrapper in every funnelstates namespace."""
        wrapper = self.wrap(name, original)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "funnelstates" or modname.startswith("funnelstates.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        import funnelstates.cli as cli
        import funnelstates.primitives as primitives
        import funnelstates.runner as runner

        pkg = sys.modules["funnelstates"]
        for module, names in LAYER_FUNCTIONS.items():
            mod = getattr(pkg, module)
            for fn in names:
                self._patch_everywhere(f"{module}.{fn}", getattr(mod, fn))
        for attr, value in list(vars(primitives).items()):
            if (not attr.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == primitives.__name__):
                self._patch_everywhere(f"primitives.{attr}", value)
        self._patch_everywhere("runner.run", runner.run)
        self._patch_everywhere("cli.verify", cli._cmd_verify)
        for sid, info in list(runner.SUITES.items()):
            self._patches.append((runner.SUITES, sid, info))
            runner.SUITES[sid] = dataclasses.replace(
                info, runner=self.wrap(f"runner.suite.{sid}", info.runner))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._patches.clear()

    # -- reduction -----------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self._span_name)

    def reduce(self, rounds: int) -> dict:
        """Per-layer numbers per round, from the recorded spans."""
        n = len(self._span_name)
        names, parents = self._span_name, self._span_parent
        dur = [self._span_t1[i] - self._span_t0[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
        calls = {}
        self_s = {}
        suite_s = {}
        suite_ids = {self._name_ids.get(f"runner.suite.{sid}") for sid in SUITE_IDS}
        suite_ids.discard(None)
        for i in range(n):
            name = self._names[names[i]]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
            if names[i] in suite_ids and not self._inside(i, suite_ids):
                suite_s[name] = suite_s.get(name, 0.0) + dur[i]
        run_s = sum(dur[i] for i in range(n) if self._names[names[i]] == "runner.run")
        verify_s = sum(dur[i] for i in range(n) if self._names[names[i]] == "cli.verify")

        out = {}
        for metric, _unit in per_layer_names():
            base, _, field = metric.rpartition(".")
            if metric.startswith("runner.suite."):
                value = suite_s.get(base, 0.0)
            elif metric == "runner.report.s":
                value = verify_s - run_s
            elif metric == "primitives.self_s":
                value = sum(v for k, v in self_s.items() if k.startswith("primitives."))
            elif field == "calls":
                value = calls.get(base, 0)
            elif field == "self_s":
                value = self_s.get(base, 0.0)
            else:
                value = self._extras.get(metric, 0)
            out[metric] = value / rounds
        return out

    def _inside(self, idx: int, ids: set) -> bool:
        """Whether span `idx` lies inside another span whose name is in `ids`."""
        p = self._span_parent[idx]
        while p >= 0:
            if self._span_name[p] in ids:
                return True
            p = self._span_parent[p]
        return False
