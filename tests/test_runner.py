import ast
import dataclasses
import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from funnelstates import CapacityError, ConfigurationError, OrthogonalFamily, build_complete_family
from funnelstates import runner
from funnelstates.cli import main
from funnelstates.runner import (
    ScenarioConfig,
    config_from_dict,
    emit_demo_tables,
    list_suites,
    load_config,
    report_digest,
    run,
    suite_seed,
)


def test_default_config_covers_all_suites():
    config = ScenarioConfig()
    assert len(config.active_suites) == len(list_suites())
    assert config.tower_dims == (2, 2, 4)
    assert config.seed == 42


def test_unknown_suite_rejected():
    with pytest.raises(ConfigurationError):
        ScenarioConfig(suites=("not_a_suite",))


def test_unknown_config_key_rejected():
    with pytest.raises(ConfigurationError):
        config_from_dict({"tower_dims": [2, 2], "nonsense": 1})


def test_seed_range_enforced():
    with pytest.raises(ConfigurationError):
        ScenarioConfig(seed=-1)
    with pytest.raises(ConfigurationError):
        ScenarioConfig(seed=2**64)


def test_suite_seed_is_stable():
    assert suite_seed(42, "lift") == suite_seed(42, "lift")
    assert suite_seed(42, "lift") != suite_seed(42, "fuchs")
    assert suite_seed(42, "lift") != suite_seed(43, "lift")


def test_list_suites_contents():
    infos = list_suites()
    ids = {info["id"] for info in infos}
    assert "lift" in ids and "spectral" in ids
    assert len(infos) >= 14
    for info in infos:
        assert info["claim"] and info["description"]


def test_single_suite_run_passes():
    report = run(ScenarioConfig(suites=("lift",)))
    assert report.passed
    doc = report.to_dict()
    assert doc["schema_version"] == "1"
    assert doc["counts"]["fail"] == 0
    assert [s["suite"] for s in doc["suites"]] == ["lift"]
    for check in doc["suites"][0]["checks"]:
        assert set(check) == {"id", "status", "residual", "residual_17g",
                              "tolerance", "comparator", "witness"}
        float(check["residual_17g"])  # machine-parseable


def test_capacity_failure_surfaces_in_report():
    # a capacity violation is decided from the dimensions alone, at admission
    with pytest.raises(CapacityError, match="level 3"):
        ScenarioConfig(tower_dims=(2, 2, 2), suites=("lift", "fuchs"))
    with pytest.raises(CapacityError, match="level 2"):
        config_from_dict({"tower_dims": [3, 2]})


def test_failed_checks_carry_witnesses():
    # an unreachable override forces a failure
    report = run(ScenarioConfig(suites=("lift",), tolerance_overrides={"lift": 1e-30}))
    failed = [c for s in report.suites for c in s.checks if c.status == "fail"]
    assert failed
    assert all(c.witness is not None for c in failed)


@pytest.mark.parametrize("suite, check_id", [
    ("duality", "duality/transition_link"),
    ("commensurability", "commensurability/probe_commuting_projections"),
])
def test_tolerance_override_governs_its_check(suite, check_id):
    report = run(ScenarioConfig(suites=(suite,), tolerance_overrides={suite: 1e-300}))
    check = next(c for c in report.suites[0].checks if c.check_id == check_id)
    assert check.tolerance == 1e-300
    # both checks measure a rounding-level residual, which the override cannot meet
    assert check.status == "fail" and check.residual > 1e-300


def test_suite_exception_is_recorded_not_raised(tmp_path, monkeypatch):
    def broken(env):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setitem(runner.SUITES, "lift",
                        dataclasses.replace(runner.SUITES["lift"], runner=broken))
    out_file = tmp_path / "report.json"
    code = main(["verify", "--suite", "lift", "--suite", "min_projection",
                 "--out", str(out_file)])
    assert code == 1
    suites = {s["suite"]: s for s in json.loads(out_file.read_text())["suites"]}
    assert suites["lift"]["error"] == "LinAlgError: SVD did not converge"
    assert suites["min_projection"]["error"] is None
    assert suites["min_projection"]["checks"]
    assert all(c["status"] == "pass" for c in suites["min_projection"]["checks"])


def test_detector_suite_on_smallest_tower():
    report = run(ScenarioConfig(tower_dims=(2, 2), suites=("detector",)))
    assert report.passed
    ids = [c.check_id for s in report.suites for c in s.checks]
    assert "detector/floor_rejected" in ids and "detector/recovery_error" in ids


def test_reports_are_deterministic():
    config = ScenarioConfig(suites=("lift", "uhlmann"), sample_counts={"lift": 20, "uhlmann": 30})
    assert report_digest(run(config)) == report_digest(run(config))


def test_demo_tables_have_rows():
    text = emit_demo_tables(ScenarioConfig())
    assert "closed form" in text
    assert "weak" in text and "strong" in text
    assert "completeness" in text
    assert len(text.splitlines()) > 15


# -- CLI -----------------------------------------------------------------


def test_cli_suites_command(capsys):
    assert main(["suites"]) == 0
    out = capsys.readouterr().out
    assert "lift" in out and "spectral" in out


def _reject_constant(name):
    raise ValueError(f"report holds {name}, which is not valid JSON")


def test_cli_verify_single_suite(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code = main(["verify", "--suite", "lift", "--out", str(out_file)])
    assert code == 0
    doc = json.loads(out_file.read_text(), parse_constant=_reject_constant)
    assert doc["counts"]["fail"] == 0
    assert "pass" in capsys.readouterr().out


def test_cli_verify_config_file(tmp_path):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"tower_dims": [2, 2], "seed": 7, "suites": ["min_projection"]}))
    out_file = tmp_path / "r.json"
    assert main(["verify", "--config", str(cfg), "--out", str(out_file)]) == 0
    doc = json.loads(out_file.read_text())
    assert doc["scenario"]["tower_dims"] == [2, 2]
    assert doc["scenario"]["seed"] == 7


def test_cli_verify_capacity_failure_exit_code(tmp_path):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"tower_dims": [2, 2, 2], "suites": ["lift"]}))
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("scenario", [
    {"profile": "nope"}, {"tower_dims": [1, 2]}, {"tower_dims": [2, 2, 4, 16]},
    {"suites": ["lift"], "sample_counts": {"lift": 0}},
    {"sample_counts": {"lift": -3}}, {"sample_counts": {"lift": "abc"}},
    {"sample_counts": {"lift": True}}, {"sample_counts": {"lift": 2.5}}, {"sample_counts": []},
    {"tolerance_overrides": {"lift": "x"}}, {"tolerance_overrides": {"lift": 0.0}},
    {"tolerance_overrides": {"lift": float("nan")}},
    {"tolerance_overrides": {"lift": float("inf")}},
    {"tolerance_overrides": {"lift": False}},
    {"tolerance_overrides": {"determinism": 1e-300}}, {"sample_counts": {"determinism": 3}},
])
def test_cli_malformed_scenario_exit_code(tmp_path, capsys, monkeypatch, scenario):
    # [2, 2, 4, 16] has D=256, whose D^2-member complete family would need about
    # 69 GB: a scenario that slips past admission must fail here, not start a run.
    # A zero count would pass `lift` on no samples with an infinite residual.
    # `determinism` reruns a fixed sub-scenario, so an entry for it would be ignored.
    monkeypatch.setattr("funnelstates.cli.run", lambda config: pytest.fail("scenario was admitted"))
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(scenario))
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_size_guard_reads_the_limit_at_call_time(monkeypatch):
    assert ScenarioConfig(tower_dims=(2, 2)).tower_dims == (2, 2)
    monkeypatch.setattr(runner.nk, "MAX_TOTAL_DIM", 8)
    with pytest.raises(ConfigurationError, match="doubled dimension 16"):
        ScenarioConfig(tower_dims=(2, 2))


def test_cli_seed_and_suite_overrides(tmp_path, capsys):
    out_file = tmp_path / "r.json"
    assert main(["verify", "--suite", "min_projection", "--seed", "7", "--out", str(out_file)]) == 0
    scenario = json.loads(out_file.read_text())["scenario"]
    assert (scenario["seed"], scenario["suites"]) == (7, ["min_projection"])
    assert main(["verify", "--seed", "-1", "--out", str(tmp_path / "bad.json")]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_names_traced_by_the_benchmark_exist():
    # perfbench/spans.py wraps these by name; a deletion would break `--trace 1`
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, names in spans.LAYER_FUNCTIONS.items():
        mod = importlib.import_module(f"funnelstates.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"
    assert callable(runner.make_excitation)
    assert set(spans.SUITE_IDS) <= set(runner.SUITES)


def test_randomness_is_passed_in_explicitly():
    # every random draw comes from a Generator or seed the caller passes;
    # a defaulted rng or seed would be a hidden fixed stream
    defaulted = []
    for module in ("numkernel", "funnel", "excitations", "transitions", "statealgebra",
                   "primitives"):
        mod = importlib.import_module(f"funnelstates.{module}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                functions = [obj]
            elif inspect.isclass(obj):
                functions = [f for n, f in vars(obj).items() if inspect.isfunction(f)
                             and (n == "__init__" or not n.startswith("_"))]
            else:
                continue
            for fn in functions:
                for param in inspect.signature(fn).parameters.values():
                    if param.name in ("rng", "seed") and param.default is not param.empty:
                        defaulted.append(f"{module}.{fn.__qualname__}({param.name})")
    assert defaulted == []


def _guard_only_parameters(fn: ast.FunctionDef):
    """Parameters whose every read sits in an `if <test>: raise` naming only that parameter."""
    params = {a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs}
    local = params | {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
                      and isinstance(n.ctx, ast.Store)}
    guarded = set()
    for node in ast.walk(fn):
        if (isinstance(node, ast.If) and not node.orelse
                and all(isinstance(stmt, ast.Raise) for stmt in node.body)):
            named = {n.id for n in ast.walk(node.test) if isinstance(n, ast.Name)} & local
            if len(named) == 1:
                guarded.update(id(n) for n in ast.walk(node) if isinstance(n, ast.Name))
    reads = [n for n in ast.walk(fn)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id in params]
    return sorted({n.id for n in reads} - {n.id for n in reads if id(n) not in guarded})


def test_no_parameter_is_read_only_by_its_own_guard():
    # a parameter that only its own `if ...: raise` reads changes nothing the
    # function computes; `require_*` validators exist to do exactly that
    dead = []
    for module in ("numkernel", "funnel", "excitations", "transitions", "statealgebra",
                   "primitives"):
        mod = importlib.import_module(f"funnelstates.{module}")
        tree = ast.parse(Path(mod.__file__).read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("require_"):
                dead += [f"{module}.{fn.name}({name})" for name in _guard_only_parameters(fn)]
    assert dead == []


@pytest.mark.parametrize("dims", [(2, 2, 12), (2, 2, 16)])
def test_detector_suite_passes_at_d48_and_d64(dims):
    (suite,) = run(ScenarioConfig(tower_dims=dims, suites=("detector",))).suites
    assert suite.error is None
    assert [c.check_id for c in suite.checks if c.status != "pass"] == []
    assert len(suite.checks) == 4


def test_cli_bad_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"suites": ["nope"]}))
    assert main(["verify", "--config", str(cfg)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_out_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("FUNNELSTATES_OUT_DIR", str(tmp_path))
    assert main(["verify", "--suite", "min_projection"]) == 0
    assert (tmp_path / "report.json").exists()


def test_cli_demo(capsys):
    assert main(["demo"]) == 0
    assert "survival probability" in capsys.readouterr().out


@pytest.mark.parametrize("dims", [(2, 2, 4), (2, 2, 8)])
def test_gram_oracle_equals_dense_spectrum(dims, monkeypatch):
    from funnelstates import statealgebra as sa

    seen = []
    gram_spectrum = runner._gram_spectrum

    def recording(terms):
        seen.append((terms, gram_spectrum(terms)))
        return seen[-1][1]

    monkeypatch.setattr(runner, "_gram_spectrum", recording)
    (suite,) = run(ScenarioConfig(tower_dims=dims, suites=("spectral",))).suites
    assert suite.error is None
    ((terms, oracle),) = seen
    assert [c for c, _ in terms] == [0.5, 0.5]
    mix = sa.element_from_terms(terms[0][1].state, terms)
    dense = np.linalg.eigvalsh(mix.kernel())
    dense = dense[np.abs(dense) > 1e-12][::-1]
    assert len(oracle) == len(dense) == 2
    np.testing.assert_allclose(oracle, dense, rtol=0, atol=1e-13)


def _off_self_weights(vectors, k):
    return sum(abs(np.vdot(vectors[m], vectors[k])) ** 2 for m in range(len(vectors)) if m != k)


def test_member_concentration_keeps_tiny_off_self_weights(small_state):
    # a hand-made q whose columns 1 and 2 lean on column 0 by about 1e-20:
    # the off-self weights, about 1e-40, survive beside a self term of 1
    eps = 1e-20 * np.exp(0.3j)
    q = np.eye(4, dtype=complex)
    q[0, 1], q[0, 2] = eps, np.conj(eps)
    q /= np.linalg.norm(q, axis=0)
    family = OrthogonalFamily(state=small_state, q=q)
    for k in range(16):
        explicit = _off_self_weights(family.vectors, k)
        assert (explicit > 0.0) == (k % 4 != 3)
        assert runner._member_concentration(family, k) == pytest.approx(explicit, rel=1e-6)


def test_member_concentration_reads_the_block(state):
    # the default family's member k is e_{k // D} (x) q_{k % D}: the block
    # column gives the weights that the formed rows give, and forms no rows
    family = build_complete_family(state)
    values = [runner._member_concentration(family, k) for k in (3, 16 * 5 + 7)]
    assert family._vectors is None
    for k, value in zip((3, 16 * 5 + 7), values):
        assert value == pytest.approx(_off_self_weights(family.vectors, k), rel=0, abs=1e-30)


def test_completeness_holds_one_family_at_a_time(monkeypatch):
    import weakref

    built = []

    def tracking(state, generators=None):
        assert all(ref() is None for ref in built), "an earlier family is still alive"
        family = build(state, generators=generators)
        built.append(weakref.ref(family))
        return family

    build = runner.build_complete_family
    monkeypatch.setattr(runner, "build_complete_family", tracking)
    (suite,) = run(ScenarioConfig(suites=("completeness",))).suites
    assert suite.error is None
    assert len(built) == 4  # main and 2x2, default and reversed generators each
    assert all(c.status == "pass" for c in suite.checks)


def test_completeness_suite_peak_memory():
    import tracemalloc

    # the suite's largest structure is one D^2 x D^2 complex array, the
    # generator rows; the raw QR copies it once (2.29 copies measured at D=16),
    # and no family forms its rows
    config = ScenarioConfig(suites=("completeness",))
    run(config)  # the first run fills lazy imports and caches
    tracemalloc.start()
    try:
        (suite,) = run(config).suites
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(c.status == "pass" for c in suite.checks)
    d = int(np.prod(config.tower_dims))
    assert peak <= 2.5 * d**4 * 16


def test_extreme_points_builds_each_projection_once(monkeypatch):
    import collections

    built = collections.Counter()

    def counting(state, n):
        built[id(state), n] += 1
        return build(state, n)

    build = runner.minimal_extension_projection
    monkeypatch.setattr(runner, "minimal_extension_projection", counting)
    (suite,) = run(ScenarioConfig(suites=("extreme_points",))).suites
    assert suite.error is None
    assert all(c.status == "pass" for c in suite.checks)
    # the default tower has levels 1 and 2 below its top, both on one state
    assert len({state_id for state_id, _ in built}) == 1
    assert sorted(level for _, level in built) == [1, 2]
    assert all(count == 1 for count in built.values())
