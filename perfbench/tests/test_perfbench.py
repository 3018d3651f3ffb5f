"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest perfbench/tests -q

Every workload runs at `--tiny` size through the same code path as a
real run; corrupted outputs handed to the checker must count as failed.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
from spans import layer_metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = run.workloads(tiny=True)
REFERENCE = checks.load_reference()["tiny"]


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_harness():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.workloads())
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert set(TINY) == set(run.workloads())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(TINY))
def test_tiny_run_prints_every_metric_and_passes(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    text = "\n".join(lines[:-1])
    for m in expected:
        assert f"{m['name']} " in text and text.count(m["unit"]) >= 1
    assert '"nproc"' in text and '"blas_threads"' in text
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if trace and workload != "renewal":
        assert metrics["noise.sample_observations.calls"] == len(TINY[workload].n_values) * \
            TINY[workload].replications
        assert metrics["estimator.select_model.candidates"] > 0
        assert metrics["risk.chunks"] >= 1 and metrics["risk.payload_bytes"] > 0
        assert metrics["noise.sample_observations.peak_mb"] > 0
    if trace and workload == "renewal":
        assert metrics["renewal.converged"] == 1 and metrics["renewal.grid_points"] > 0
        assert metrics["renewal.solve_renewal_density.peak_mb"] > 0
    if not trace:
        assert all(value > 0 for value in metrics.values())


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "desk", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _risk_csv(path, rows):
    lines = ["# manifest_digest=x", "n,p,N,R_bar,R_bar_se,R_rel,oracle,seconds"]
    lines += [",".join(map(str, r)) for r in rows]
    path.write_text("\n".join(lines) + "\n")


def test_risk_checker_counts_corrupted_tables(tmp_path):
    w = TINY["desk"]
    ref = REFERENCE["desk"]
    good = [(n, 101, w.replications, ref[str(n)]["R_bar"]["mean"], 0.1, 0.5,
             ref[str(n)]["oracle"]["mean"], 0.25) for n in w.n_values]
    proxy = {str(n): {"count": w.replications, "mean": ref[str(n)]["proxy_variance"]["mean"]}
             for n in w.n_values}
    _risk_csv(tmp_path / "risk.csv", good)
    for seen in (proxy, None):
        assert checks.check_risk(tmp_path / "risk.csv", w.n_values, w.replications, ref,
                                 seen) == []

    biased = [r[:3] + (r[3] * 10,) + r[4:] for r in good]
    short = good[:1]
    wrong_n = [r[:2] + (w.replications - 1,) + r[3:] for r in good]
    for rows in (biased, short, wrong_n):
        _risk_csv(tmp_path / "risk.csv", rows)
        assert checks.check_risk(tmp_path / "risk.csv", w.n_values, w.replications, ref)

    # a wrong noise level, or paths the estimator never saw, fail a good table
    _risk_csv(tmp_path / "risk.csv", good)
    quiet = {n: {**seen, "mean": 0.5 * seen["mean"]} for n, seen in proxy.items()}
    missing = {n: seen for n, seen in list(proxy.items())[:1]}
    for seen in (quiet, missing):
        assert checks.check_risk(tmp_path / "risk.csv", w.n_values, w.replications, ref, seen)

    # the same corrupted table counts as one failed command of a run
    bench = run.Run(ROOT, w, seed=1, tiny=True)
    out = tmp_path / "cmd0"
    out.mkdir()
    _risk_csv(out / "risk.csv", biased)
    result = tmp_path / "cmd0.json"
    result.write_text(json.dumps({"rc": 0, "wall_s": 1.0, "peak_rss_mb": 1.0,
                                  "children_peak_rss_mb": 1.0, "renewal": [],
                                  "proxy_variance": proxy}))
    bench.add({"id": "cmd0", "trace": False, "threads": 1, "setup_s": 1.0}, 0, result, out)
    assert (bench.attempted, bench.failed) == (1, 1)


def test_renewal_checker_counts_corrupted_tables(tmp_path):
    cfg = tmp_path / "r.cfg"
    cfg.write_text(TINY["renewal"].config)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import driftsel.cli as c, sys; sys.exit(c.main(sys.argv[1:]))"
    subprocess.run([sys.executable, "-c", code, "renewal-density", "--config", str(cfg),
                    "--out", str(tmp_path)], env=env, check=True, timeout=120)
    path = tmp_path / "renewal.csv"
    ref = REFERENCE["renewal"]
    ok = [{"converged": True}]
    assert checks.check_renewal(path, ok, ref) == []
    assert checks.check_renewal(path, [{"converged": False}], ref)

    header, rows = checks.read_table(path)
    table = np.array(rows, dtype=float)
    for corrupt in ("scale", "negative"):
        t = table.copy()
        if corrupt == "scale":
            t[:, 2] *= 1.05
        else:
            t[5, 1] = -1e-3
        lines = ["# manifest_digest=x", ",".join(header)]
        lines += [",".join(repr(float(v)) for v in row) for row in t]
        path.write_text("\n".join(lines) + "\n")
        assert checks.check_renewal(path, ok, ref), corrupt


def test_determinism_mismatch_counts_as_failed():
    bench = run.Run(ROOT, TINY["desk"], seed=1, tiny=True)
    bench.outputs = ["a", "a", "b"]
    bench.determinism()
    assert (bench.attempted, bench.failed) == (1, 1)


def test_self_time_subtracts_direct_children():
    spans = [
        {"name": "cli.main", "start": 0.0, "end": 10.0, "parent": None, "run": "r"},
        {"name": "estimator.select_model", "start": 1.0, "end": 5.0, "parent": 0, "run": "r"},
        {"name": "estimator.estimate_proxy_variance", "start": 1.0, "end": 2.0, "parent": 1,
         "run": "r"},
    ]
    m = layer_metrics(spans, {}, {})
    assert m["cli.main.s"] == 10.0 and m["cli.main.self_s"] == 6.0
    assert m["estimator.select_model.self_s"] == 3.0
    assert m["estimator.estimate_proxy_variance.calls"] == 1
    assert m["trace.coverage"] == 0.4


def _processes_mentioning(text):
    found = []
    for cmdline in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            if text in cmdline.read_bytes().decode(errors="replace"):
                found.append(cmdline.parent.name)
        except OSError:
            pass
    return found


def test_terminated_run_stops_its_commands():
    proc = subprocess.Popen([sys.executable, str(BENCH / "run.py"), "--workload", "desk",
                             "--seed", "987", "--seconds", "60", "--trace", "0", "--tiny"],
                            cwd=ROOT, stdout=subprocess.DEVNULL)
    marker = f"desk-s987-{proc.pid}"
    for _ in range(200):
        if _processes_mentioning(marker):
            break
        time.sleep(0.05)
    assert _processes_mentioning(marker), "no command started"
    proc.terminate()
    assert proc.wait(timeout=30) != 0
    time.sleep(0.5)
    assert _processes_mentioning(marker) == []
