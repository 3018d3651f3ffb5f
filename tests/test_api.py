"""Rules on driftsel's own code: every public top-level function and
class has a production caller, only `cli.main` writes files or messages
or turns values into text, every file parses as the oldest supported
Python, the README's library example runs, and the names the benchmark
drives and observes keep their meaning."""

import ast
import math
import os
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import driftsel
import driftsel.cli as cli
import driftsel.estimator
import driftsel.noise
import driftsel.risk

# proxy_variance and pinsker_constant wait for run telemetry that reports them
NO_CALLER_YET = {"proxy_variance", "pinsker_constant"}


def test_public_api_has_a_production_caller():
    # an API only tests call belongs in the tests; a name counts as used
    # when driftsel's own code loads it (an import alone does not count)
    defined, used = set(), set()
    for path in Path(driftsel.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined.update(node.name for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"))
        used.update(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))
    assert defined - used == NO_CALLER_YET


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in Path(driftsel.__file__).parent.glob("*.py")}


def test_only_the_component_generators_are_built():
    # every draw is made on one re-keyed generator per noise component;
    # a generator built anywhere else is a second way to get a stream
    sites = set()
    for stem, tree in _modules().items():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "Generator" in (getattr(node.func, "id", None),
                                                                  getattr(node.func, "attr", None)):
                    sites.add((stem, getattr(top, "name", "<module>")))
    assert sites == {("noise", "_component")}


def test_every_imported_name_is_used():
    # a module loads every name it imports (annotations count)
    for stem, tree in _modules().items():
        imported = {(alias.asname or alias.name).partition(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
                    for alias in node.names}
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= loaded, (stem, imported - loaded)


WRITES = {"write_text", "write_bytes", "mkdir", "open", "print"}


def test_only_main_writes():
    # handlers return their tables and main writes the run after they
    # return, so a run that fails creates nothing, and a handler warns
    # where main prints its messages; a write may sit in cli.main or in a
    # private helper that only main calls
    writers, callers = set(), defaultdict(set)
    for path in Path(driftsel.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            site = (path.stem, getattr(top, "name", "<module>"))
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "attr", getattr(node.func, "id", None))
                    callers[name].add(site)
                    if name in WRITES:
                        writers.add(site)
    main = {("cli", "main")}
    helpers = {site for site in writers if site[1].startswith("_") and callers[site[1]] == main}
    assert writers <= main | helpers


def test_only_main_formats():
    # a handler returns columns of numbers, and main writes each value as
    # its repr: one rule, so no handler may format a value itself
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and top.name.startswith(("_run_", "_fit_")):
            called = {getattr(node.func, "attr", getattr(node.func, "id", None))
                      for node in ast.walk(top) if isinstance(node, ast.Call)}
            assert not called & {"repr", "str", "format", "join", "_fmt"}, top.name


def test_main_has_no_per_subcommand_branch():
    # each rule is checked where its subcommand meets it, and main runs
    # every command down one path with one error path
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    [main] = [top for top in tree.body if isinstance(top, ast.FunctionDef) and top.name == "main"]
    for node in ast.walk(main):
        if isinstance(node, ast.Compare):
            operands = {ast.unparse(operand) for operand in (node.left, *node.comparators)}
            assert "args.subcommand" not in operands, ast.unparse(node)


def test_every_file_parses_as_python_3_10():
    # pyproject.toml requires Python >= 3.10, and the suite may run on a
    # later one: syntax that 3.10 lacks, such as except*, is refused here;
    # parsing compiles nothing, so no __pycache__ is written
    root = Path(__file__).resolve().parents[1]
    paths = [path for folder in ("src", "tests", "perfbench") for path in sorted((root / folder).rglob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_readme_library_example_runs():
    # nothing else runs the README's python block, so it is run as written
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"^## Library use\n\n```python\n(.*?)^```", readme, re.S | re.M)
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", block + "print(fitted.shape)\n"], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "(1001,)"


def test_benchmark_hooks_keep_their_names_and_counts(tmp_path, monkeypatch):
    # the benchmark's child process resolves, validates and runs a command
    # through these cli names, and observes these attributes by name in
    # cli, estimator, noise and risk, as done here; a rename or a batched
    # call would zero its counts while every other test stays green
    modules = (cli, driftsel.estimator, driftsel.noise, driftsel.risk)
    calls = defaultdict(list)

    for attr in ("estimate_proxy_variance", "solve_renewal_density"):
        for module in modules:
            fn = getattr(module, attr, None)
            if fn is None:
                continue

            def call(*args, _fn=fn, _attr=attr, **kwargs):
                result = _fn(*args, **kwargs)
                calls[_attr].append((args, kwargs, result))
                return result

            monkeypatch.setattr(module, attr, call)

    config = tmp_path / "run.cfg"
    config.write_text("risk.n_values=20,40\nrisk.p=101\nrisk.replications=60\n"
                      "estimator.k_star=2\nestimator.eps=0.5\n"
                      "noise.interarrival=exponential(1)\nrenewal.h=0.02\nrenewal.horizon=20.0\n")
    for command in ("risk-table", "renewal-density"):
        argv = [command, "--config", str(config), "--threads", "1", "--out", str(tmp_path / command)]
        cli.validate_config(cli.resolve_run_config(cli.build_parser().parse_args(argv)))
        assert cli.main(argv) == 0

    # one proxy-variance estimate per replication, its estimate first
    per_n = defaultdict(int)
    for args, kwargs, result in calls["estimate_proxy_variance"]:
        per_n[(args[0] if args else kwargs["est"]).n] += 1
        assert math.isfinite(result)
    assert per_n == {20: 60, 40: 60}
    # one renewal solve, carrying what the benchmark checks
    [(_, _, solution)] = calls["solve_renewal_density"]
    assert solution.converged and math.isfinite(solution.l1_error) and math.isfinite(solution.upsilon_l1)
