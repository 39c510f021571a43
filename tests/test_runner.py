import ast
import dataclasses
import importlib.util
import inspect
import json
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from funnelstates import (CapacityError, ConfigurationError, ExcitationState, GenericState,
                          OrthogonalFamily, PartialIsometry, PrimitiveObservable,
                          build_complete_family, build_tower)
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

from conftest import kernel


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


@pytest.mark.parametrize("seed", [7.5, True, "42", None])
def test_seed_must_be_an_integer(seed):
    # int() would truncate 7.5 to 7 and run True as 1
    with pytest.raises(ConfigurationError):
        ScenarioConfig(seed=seed)
    assert ScenarioConfig(seed=np.uint64(7)).seed == 7


@pytest.mark.parametrize("dims", [(2,), (3,)])
def test_one_level_tower_rejected(dims):
    # a funnel needs a level above the first: six suites work one level up
    with pytest.raises(ConfigurationError, match="at least two nested levels"):
        ScenarioConfig(tower_dims=dims)
    # the library still builds the tower itself
    assert build_tower(dims).levels == 1


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
    # the declared defaults: a count and a tolerance, or None for fixed work
    declared = {info["id"]: (info["count"], info["tolerance"]) for info in infos}
    assert declared["lift"] == (100, 1e-9) and declared["detector"] == (10, 1e-3)
    assert declared["min_projection"] == (None, 1e-10) and declared["determinism"] == (None, None)


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


@pytest.mark.parametrize("config", [
    {"tower_dims": [2, 2], "seed": 8},
    {"tower_dims": [2, 3], "seed": 11},
    {"tower_dims": [2, 2, 4], "profile": "near_tracial", "seed": 14},
    {"tower_dims": [2, 2, 8], "profile": "near_tracial", "seed": 3},
])
def test_local_continuity_holds_where_a_large_step_lands_near_the_reference(config):
    # continuity bounds each deviation by 2 ||u' - u||; it does not order the
    # deviations, and in these scenarios the m = 1 step lands near the
    # reference probability, below the m = 32 deviation
    (suite,) = run(config_from_dict(dict(config, suites=["fuchs"]))).suites
    assert suite.error is None
    assert [c.check_id for c in suite.checks if c.status != "pass"] == []


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
    lines = {line.split()[0]: line for line in out.splitlines() if line[:1].strip()}
    assert lines["lift"].endswith("(100 samples, tolerance 1e-09)")
    assert lines["dilation"].endswith("(fixed work, tolerance 1e-12)")
    assert lines["determinism"].endswith("(fixed work, no tolerance)")


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
    {"profile": "nope"}, {"tower_dims": [1, 2]}, {"tower_dims": [2, 2, 128]},
    {"suites": ["lift"], "sample_counts": {"lift": 0}},
    {"sample_counts": {"lift": -3}}, {"sample_counts": {"lift": "abc"}},
    {"sample_counts": {"lift": True}}, {"sample_counts": {"lift": 2.5}}, {"sample_counts": []},
    {"tolerance_overrides": {"lift": "x"}}, {"tolerance_overrides": {"lift": 0.0}},
    {"tolerance_overrides": {"lift": float("nan")}},
    {"tolerance_overrides": {"lift": float("inf")}},
    {"tolerance_overrides": {"lift": False}},
    {"tolerance_overrides": {"determinism": 1e-300}}, {"sample_counts": {"determinism": 3}},
    {"tower_dims": [2, 2.9], "seed": 7.5, "suites": ["lift"]}, {"seed": True},
    {"seed": "42"}, {"tower_dims": [2, True]}, {"tower_dims": 4},
    {"sample_counts": {"min_projection": 1, "dilation": 1}},
    {"suites": 5}, {"suites": None}, {"suites": "lift"}, {"suites": {"lift": 1}},
    {"suites": ["vacuum", "vacuum"]}, {"suites": [["lift"]]},
    {"tower_dims": [2]}, {"tower_dims": [3]},
])
def test_cli_malformed_scenario_exit_code(tmp_path, capsys, monkeypatch, scenario):
    # [2, 2, 128] has D=512, above the D <= 256 ceiling that bounds a round's run
    # time: a scenario that slips past admission must fail here, not start a run.
    # A zero count would pass `lift` on no samples with an infinite residual.
    # `determinism` reruns a fixed sub-scenario, so an entry for it would be ignored;
    # `min_projection` and `dilation` draw no samples, so a count for them would be too.
    # Non-integer dimensions and seeds are rejected: [2, 2.9] with seed 7.5 ran as
    # [2, 2] with seed 7, and seed true as 1.  `suites` is a list of distinct
    # ids: 5 and null raised a TypeError (exit 1), {"lift": 1} ran as ["lift"],
    # and a repeated id ran its suite twice.  A one-level tower ran, and six
    # suites that work a level above the first reported errors.
    monkeypatch.setattr("funnelstates.cli.run", lambda config: pytest.fail("scenario was admitted"))
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(scenario))
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_cli_demo_rejects_a_one_level_tower(tmp_path, capsys):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"tower_dims": [2]}))
    assert main(["demo", "--config", str(cfg)]) == 2
    assert "at least two nested levels" in capsys.readouterr().err


def test_sample_counts_are_taken_only_by_suites_that_read_them():
    # each suite's declared count and tolerance are what it reads: a count
    # override changes its report, a tolerance override (half the default,
    # which keeps the detector's epsilon tunable) is carried by one of its
    # checks, and an entry for a suite that declares none is rejected
    counted = [sid for sid, info in runner.SUITES.items() if info.count is not None]
    halved = {sid: info.tol / 2 for sid, info in runner.SUITES.items() if info.tol is not None}

    def by_suite(count):
        report = run(ScenarioConfig(tower_dims=(2, 2), sample_counts=dict.fromkeys(counted, count),
                                    tolerance_overrides=halved))
        return {s.suite_id: s for s in report.suites}

    # far apart: a worst case over the samples can sit on the first one for a
    # while (null_transfer's does up to count 5 on (2, 2))
    first, second = by_suite(1), by_suite(8)
    for sid in counted:
        assert first[sid].error is None and first[sid].to_dict() != second[sid].to_dict(), sid
    for sid, tol in halved.items():
        assert tol in [c.tolerance for c in first[sid].checks], sid
    for sid, info in runner.SUITES.items():
        if info.count is None:
            with pytest.raises(ConfigurationError, match=f"suite '{sid}' takes no sample count"):
                ScenarioConfig(sample_counts={sid: 1})
        if info.tol is None:
            with pytest.raises(ConfigurationError, match=f"suite '{sid}' takes no tolerance"):
                ScenarioConfig(tolerance_overrides={sid: 1e-3})


@pytest.mark.parametrize("count, total", [(7, 7), (45, 30)])
def test_duality_count_caps_the_faithfulness_witnesses_at_30(count, total):
    # one count sizes the positivity loop and, up to its default 30, the witness loop
    report = run(ScenarioConfig(tower_dims=(2, 2), suites=("duality",), sample_counts={"duality": count}))
    check = next(c for c in report.suites[0].checks if c.check_id == "duality/faithfulness_witnesses")
    assert check.witness["total"] == total


def test_admission_ceiling_is_d256(tmp_path, capsys, monkeypatch):
    # D=256 is admitted (a round takes under a minute); D=512 is not, and
    # verify exits 2 before anything is built
    assert ScenarioConfig(tower_dims=[2, 2, 64]).tower_dims == (2, 2, 64)
    with pytest.raises(ConfigurationError, match="top dimension 512, above the maximum 256"):
        ScenarioConfig(tower_dims=[2, 2, 128])
    monkeypatch.setattr("funnelstates.cli.run", lambda config: pytest.fail("scenario was admitted"))
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"tower_dims": [2, 2, 128]}))
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
    assert "above the maximum 256" in capsys.readouterr().err


def test_size_guard_reads_the_limit_at_call_time(monkeypatch):
    assert ScenarioConfig(tower_dims=(2, 2)).tower_dims == (2, 2)
    monkeypatch.setattr(runner, "MAX_TOP_DIM", 3)
    with pytest.raises(ConfigurationError, match="top dimension 4, above the maximum 3"):
        ScenarioConfig(tower_dims=(2, 2))


def test_cli_seed_and_suite_overrides(tmp_path, capsys):
    out_file = tmp_path / "r.json"
    assert main(["verify", "--suite", "min_projection", "--seed", "7", "--out", str(out_file)]) == 0
    scenario = json.loads(out_file.read_text())["scenario"]
    assert (scenario["seed"], scenario["suites"]) == (7, ["min_projection"])
    assert main(["verify", "--seed", "-1", "--out", str(tmp_path / "bad.json")]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("out", ["a_directory", "a_file/report.json"])
def test_cli_unwritable_report_path_exit_code(tmp_path, capsys, monkeypatch, out):
    # a directory as the report path, or a file as its parent, used to end in an
    # OSError traceback with exit code 1 after every suite had run
    (tmp_path / "a_directory").mkdir()
    (tmp_path / "a_file").write_text("")
    monkeypatch.setattr("funnelstates.cli.run", lambda config: pytest.fail("suites ran"))
    assert main(["verify", "--suite", "lift", "--out", str(tmp_path / out)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_repeated_suite_is_a_configuration_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("funnelstates.cli.run", lambda config: pytest.fail("scenario was admitted"))
    out_file = tmp_path / "r.json"
    assert main(["verify", "--suite", "vacuum", "--suite", "vacuum", "--out", str(out_file)]) == 2
    assert "suites must be distinct" in capsys.readouterr().err
    assert not out_file.exists()


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


def test_primitives_draw_nothing():
    # primitives build operators from what they are given; any random probe
    # belongs to the suite that measures them
    tree = ast.parse(Path(runner.pr.__file__).read_text())
    drawing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            args = node.args
            drawing += [f"{node.name}({a.arg})" for a in args.posonlyargs + args.args + args.kwonlyargs
                        if a.arg in ("rng", "seed")]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "default_rng"):
            drawing.append(f"line {node.lineno}: default_rng")
    assert drawing == []


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


def _identifiers(tree, strings=True) -> Counter:
    """Every name a tree mentions in code and, with `strings`, in identifier strings and in
    `quoted` docstring spans."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names[node.value] += 1
            for span in re.findall(r"`+([^`]+)`+", node.value):
                names.update(re.findall(r"[A-Za-z_]\w*", span))
    return names


def test_excitations_are_read_through_their_vector():
    # superposition, the action of an observable, phase recovery and the state
    # algebra read an excitation only through `mat`, which exists at any rank:
    # `op` may need lam^{-1/2}
    for module in ("funnel", "excitations", "transitions", "statealgebra", "primitives"):
        tree = ast.parse(Path(importlib.import_module(f"funnelstates.{module}").__file__).read_text())
        reads = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == "op"]
        assert reads == [], f"{module} reads .op on lines {reads}"


def test_library_modules_define_no_result_records():
    # a self-test returns its failures, a construction its value and a measurement
    # its number: no record wraps them (`primitives` keeps `CommensurabilityResult`)
    records = []
    for module in ("funnel", "excitations", "transitions", "statealgebra"):
        tree = ast.parse(Path(importlib.import_module(f"funnelstates.{module}").__file__).read_text())
        records += [f"{module}.{node.name}" for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                    and node.name.endswith(("Check", "Report", "Result"))]
    assert records == []


def _kron_calls(tree) -> set:
    """Lines of every call to `np.kron` or a bare `kron`."""
    return {node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == "kron"}


def test_level_operators_act_by_reshape():
    # A (x) 1 is applied by a reshape (`GenericState.act`, `runner._compressions`),
    # never built: a dense embedding costs D^3 products.  The kron products left
    # build 1 (x) B as the object under test, or the block family's overlaps.
    allowed = {("funnel", "relative_commutant_basis")}
    for path in sorted(Path(runner.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        assert _identifiers(tree)["embed_matrix"] == 0, f"{path.stem} names embed_matrix"
        if path.stem == "transitions":
            continue
        calls = _kron_calls(tree)
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and (path.stem, fn.name) in allowed:
                calls -= _kron_calls(fn)
        assert calls == set(), f"{path.stem} calls kron on lines {sorted(calls)}"


def test_levels_are_reduced_by_the_tower():
    # a level's restriction is `FunnelTower.reduce`, one reshape: the nesting
    # layout (the factor list) is read only in `funnel`, and no module keeps a
    # partial trace over arbitrary factors
    for path in sorted(Path(runner.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        assert _identifiers(tree)["partial_trace"] == 0, f"{path.stem} names partial_trace"
        if path.stem == "funnel":
            continue
        reads = sorted(node.lineno for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute) and node.attr == "factor_dims")
        assert reads == [], f"{path.stem} reads factor_dims on lines {reads}"


def test_every_definition_is_named_outside_itself():
    # a function, class or method that no library code and no benchmark names
    # is kept alive only by its tests; dunder methods are named by Python itself.
    # In the library only code counts (a docstring mention keeps nothing alive);
    # the benchmark also names the spans it traces as strings
    root = Path(__file__).resolve().parent.parent
    src = {path: ast.parse(path.read_text()) for path in (root / "src" / "funnelstates").glob("*.py")}
    named = sum((_identifiers(tree, strings=False) for tree in src.values()), Counter())
    for path in (root / "perfbench").glob("*.py"):
        named += _identifiers(ast.parse(path.read_text()))
    defs = []
    for path, tree in src.items():
        for node in tree.body:
            defs.append((path, node))
            if isinstance(node, ast.ClassDef):
                defs += [(path, child) for child in node.body]
    unnamed = [f"{path.stem}.{node.name}" for path, node in defs
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not (node.name.startswith("__") and node.name.endswith("__"))
               and named[node.name] - _identifiers(node, strings=False)[node.name] <= 0]
    assert unnamed == []


def test_derived_values_are_not_constructor_arguments():
    # a separation floor is read from the state, an excitation's level from its
    # operator and its gauge from its vector, an observable's level from its size
    def init(cls):
        return [f.name for f in dataclasses.fields(cls) if f.init]

    assert init(GenericState) == ["tower", "lam", "seed"]
    assert init(ExcitationState) == ["state", "mat", "_op"]
    assert init(PrimitiveObservable) == ["unitary"]
    assert init(PartialIsometry) == ["matrix"]
    namers = [path.stem for path in sorted(Path(runner.__file__).parent.glob("*.py"))
              if _identifiers(ast.parse(path.read_text()))["_gauge_phase"]]
    assert namers == ["excitations"]


def test_every_record_field_is_read_outside_the_tests():
    # a dataclass field that no library code and no benchmark reads as an
    # attribute is carried only for the tests; a write does not count
    root = Path(__file__).resolve().parent.parent
    src = {path: ast.parse(path.read_text()) for path in (root / "src" / "funnelstates").glob("*.py")}
    trees = list(src.values()) + [ast.parse(path.read_text()) for path in (root / "perfbench").glob("*.py")]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}

    def is_dataclass(decorator):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        return isinstance(target, ast.Name) and target.id == "dataclass"

    unread = [f"{path.stem}.{cls.name}.{stmt.target.id}"
              for path, tree in src.items() for cls in tree.body
              if isinstance(cls, ast.ClassDef) and any(map(is_dataclass, cls.decorator_list))
              for stmt in cls.body
              if isinstance(stmt, ast.AnnAssign) and stmt.target.id not in read]
    assert unread == []


@pytest.mark.parametrize("suite_id, svds", [("state_algebra", 310), ("w_isomorphism", 120)])
def test_svd_count_of_the_state_algebra_suites(suite_id, svds, monkeypatch):
    # sums over shared factors add their cores, a factor shared by both sides is
    # read as the support basis, and the set-up's trace norms are Hermitian
    # (eigvalsh): these stay exact counts of the thin SVDs that remain
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    (suite,) = run(ScenarioConfig(suites=(suite_id,))).suites
    assert suite.error is None
    assert len(calls) == svds


def test_state_algebra_suites_read_no_inverse_square_root(monkeypatch):
    # the suites' excitations come from vectors: their operators X = mat lam^{-1/2}
    # are derived only if read, and nothing in these suites reads one
    reads = []
    inv_sqrt = GenericState.inv_sqrt_lam
    monkeypatch.setattr(GenericState, "inv_sqrt_lam",
                        property(lambda s: reads.append(1) or inv_sqrt.fget(s)))
    report = run(ScenarioConfig(suites=("state_algebra", "spectral", "duality", "w_isomorphism")))
    assert report.passed
    assert len(reads) == 0


@pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
def test_pure_reference_runs_the_state_algebra_suites(dims):
    # a globally pure state is faithful on every local level; only the two
    # mixed-reference gaps, the top-level separation floor and the D^2-member
    # complete family do not apply to it
    report = run(ScenarioConfig(tower_dims=dims, profile="pure"))
    errors = [s.suite_id for s in report.suites if s.error is not None]
    failed = [c.check_id for s in report.suites for c in s.checks if c.status != "pass"]
    assert errors == ["completeness"]
    assert failed == ["lift/genericity_selftest", "fuchs/mixed_strict_gap",
                      "uhlmann/mixed_strict_gap"]


def test_dilation_suite_dilates_once(monkeypatch):
    # the tuned family is built from the suite's own unitaries, not a second dilation
    calls = []
    dilate = runner.pr.dilate_to_unitaries
    monkeypatch.setattr(runner.pr, "dilate_to_unitaries",
                        lambda v, schedule: calls.append(v) or dilate(v, schedule))
    (suite,) = run(ScenarioConfig(suites=("dilation",))).suites
    assert suite.error is None
    assert [c.check_id for c in suite.checks if c.status != "pass"] == []
    assert len(calls) == 1


@pytest.mark.parametrize("dims", [(2, 2, 12), (2, 2, 16)])
def test_detector_suite_passes_at_d48_and_d64(dims):
    (suite,) = run(ScenarioConfig(tower_dims=dims, suites=("detector",))).suites
    assert suite.error is None
    assert [c.check_id for c in suite.checks if c.status != "pass"] == []
    assert len(suite.checks) == 4


@pytest.mark.parametrize("dims", [(2, 3), (2, 2, 8)])
def test_detector_suite_passes_on_a_pure_reference(dims):
    # the concentrated states leak exact fractions below eps, whatever the
    # reference state's rank
    (suite,) = run(ScenarioConfig(tower_dims=dims, profile="pure", suites=("detector",))).suites
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
    dense = np.linalg.eigvalsh(kernel(mix))
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

    from funnelstates import transitions

    built = []

    class Tracking(transitions.OrthogonalFamily):
        def __init__(self, *args, **kwargs):
            assert all(ref() is None for ref in built), "an earlier family is still alive"
            super().__init__(*args, **kwargs)
            built.append(weakref.ref(self))

    # the default family is built in transitions, the reversed one in the suite
    monkeypatch.setattr(transitions, "OrthogonalFamily", Tracking)
    monkeypatch.setattr(runner, "OrthogonalFamily", Tracking)
    (suite,) = run(ScenarioConfig(suites=("completeness",))).suites
    assert suite.error is None
    assert len(built) == 4  # main and 2x2, default and reversed matrix units each
    assert all(c.status == "pass" for c in suite.checks)


def test_completeness_suite_peak_memory():
    import tracemalloc

    # both families are D x D blocks and neither forms its D^2 x D^2 rows:
    # the suite's peak is a multiple of D^2 (about 50 D^2 complex entries
    # measured at D=16 and D=32), not of D^4
    for dims in ((2, 2, 4), (2, 2, 8)):
        config = ScenarioConfig(tower_dims=dims, suites=("completeness",))
        run(config)  # the first run fills lazy imports and caches
        tracemalloc.start()
        try:
            (suite,) = run(config).suites
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(c.status == "pass" for c in suite.checks)
        d = int(np.prod(dims))
        assert peak <= 100 * d**2 * 16, (dims, peak / (d**2 * 16))


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
