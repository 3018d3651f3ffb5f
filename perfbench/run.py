"""driftsel benchmark: the CLI end to end, and its layers from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a checkout.  Each workload is a closed loop with one
client: one `driftsel` command runs at a time, each in a fresh
interpreter (`perfbench/child.py`), and the next starts only after it
exits.  Commands keep starting until `--seconds` have passed (at least
`MIN_COMMANDS`).  Every command of a run gets the same argv, with the
program seed set to `--seed`, so the same seed gives the same inputs and
all outputs of a run must be identical apart from the `seconds` column.

With `--trace 0` the run reports the end-to-end metrics as medians over
its commands.  With `--trace 1` it first runs untraced single-worker
commands for half the time, then span-traced single-worker commands, and
reports per-layer metrics as medians over the traced commands;
`trace.overhead_s` is the difference of the two median wall times.  One
more command runs with tracemalloc inside the memory layers only for
their `.peak_mb`, since tracemalloc would inflate the traced times (4x on
the renewal march).  For `desk` a trace run adds one untraced command
with the workload's own two workers, whose output must match the traced
single-worker output (the README's determinism contract).

Every output is checked (`checks.py`).  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Details,
the environment and all samples go to `.perfbench/results/`, and spans
to `.perfbench/spans/`.  `--tiny` runs each workload at a small size
through the same code path, for the benchmark's own tests.
"""

import argparse
import hashlib
import json
import os
import platform
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from time import perf_counter

import checks

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
MIN_COMMANDS = 3
SPANS, MEMORY = 1, 2  # trace modes of one command (child.py)
RUN_BUDGET_S = 170.0  # a run must exit within 180 s

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "reps_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "worker_peak_rss_mb": "MiB",
}

_LAYERS = (
    "noise.sample_observations", "signal.cell_integrals",
    "estimator.estimate_coefficients", "signal.grid_coefficients",
    "estimator.estimate_proxy_variance", "estimator.build_weight_family",
    "estimator.select_model", "signal.coefficients_to_grid",
    "renewal.solve_renewal_density",
)
PER_LAYER = {
    **{f"{name}.calls": "count" for name in _LAYERS},
    **{f"{name}.s": "s" for name in _LAYERS},
    "noise.sample_observations.self_s": "s",
    "noise.sample_observations.peak_mb": "MiB",
    "estimator.estimate_coefficients.peak_mb": "MiB",
    "estimator.family.members": "count",
    "estimator.family.distinct_profiles": "count",
    "estimator.family.distinct_ratio": "ratio",
    "estimator.select_model.self_s": "s",
    "estimator.select_model.candidates": "count",
    "risk.run_risk_experiment.s": "s",
    "risk.run_risk_experiment.self_s": "s",
    "risk.oracle.evals": "count",
    "risk.chunks": "count",
    "risk.payload_bytes": "B",
    "renewal.solve_renewal_density.peak_mb": "MiB",
    "renewal.grid_points": "count",
    "renewal.converged": "flag",
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    "cli.csv_bytes": "B",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: tuple  # driftsel argv without --threads/--config/--seed/--out
    config: str  # key=value lines written to a --config file ("" for none)
    n_values: tuple  # rows expected in risk.csv; () for renewal
    replications: int  # per n; a renewal solve counts as one
    threads: int


def workloads(tiny: bool = False) -> dict:
    """The benchmark's workloads; `tiny` shrinks each through the same path."""
    def risk_cfg(n_values, p, reps, k_star=0):
        lines = [f"risk.n_values = {', '.join(map(str, n_values))}", f"risk.p = {p}",
                 f"risk.replications = {reps}"]
        if k_star:
            lines.append(f"estimator.k_star = {k_star}")
        return "\n".join(lines) + "\n"

    desk_reps = 60 if tiny else 500
    wide_reps = 2 if tiny else 50
    high_reps = 2 if tiny else 4
    p_desk, p_wide, p_high = (101, 101, 101) if tiny else (1001, 1001, 10001)
    specs = [
        Workload("desk", "README desk recipe with 2 workers: 20 chunks through the process pool; "
                 "path sampling dominates",
                 ("risk-table", "--preset", "desk-scale"),
                 risk_cfg((20, 100), p_desk, desk_reps) if tiny else "",
                 (20, 100), desk_reps, 2),
        Workload("wide_family", "default k_star: thousands of candidates, few distinct profiles; "
                 "selection and oracle loop dominate",
                 ("risk-table",), risk_cfg((100, 200), p_wide, wide_reps),
                 (100, 200), wide_reps, 1),
        Workload("highfreq", "n=1000, p=10001: sampling and memory dominate, selection under 1%",
                 ("risk-table",), risk_cfg((1000,), p_high, high_reps, k_star=5),
                 (1000,), high_reps, 1),
        Workload("renewal", "the only O(m^2) renewal solve and a 6 MB CSV write",
                 ("renewal-density",),
                 "noise.interarrival = gamma(3, 0.3333333333333333)\nrenewal.h = 0.004\n"
                 if tiny else "", (), 1, 1),
    ]
    return {w.name: w for w in specs}


def command_argv(workload: Workload, threads: int, seed: int, workdir: Path) -> list:
    """The driftsel argv of one command, writing its config file into `workdir`."""
    argv = [*workload.argv, "--threads", str(threads), "--seed", str(seed)]
    if workload.config:
        cfg = workdir / "workload.cfg"
        cfg.write_text(workload.config, encoding="utf-8")
        argv += ["--config", str(cfg)]
    return argv


def child_env(root: Path) -> dict:
    """Environment of a command process: the checkout's `src` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      os.environ.get("PYTHONPATH")]))
    return env


def child_argv(workload: Workload, threads: int, seed: int, workdir: Path, run_id: str,
               trace: int = 0) -> list:
    """Argv of one command process (`child.py`); it writes `<run_id>.json`
    and its driftsel output directory `<run_id>/` into `workdir`."""
    return [sys.executable, str(CHILD), str(workdir / f"{run_id}.json"), str(trace), run_id,
            "--", *command_argv(workload, threads, seed, workdir),
            "--out", str(workdir / run_id)]


def _median(values):
    return statistics.median(values) if values else float("nan")


class Run:
    """One benchmark run: a closed loop of commands in one checkout."""

    def __init__(self, root: Path, workload: Workload, seed: int, tiny: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.reference = checks.load_reference()["tiny" if tiny else "full"][workload.name]
        self.work = root / ".perfbench" / "work" / f"{workload.name}-s{seed}-{os.getpid()}"
        self.deadline = perf_counter() + RUN_BUDGET_S
        self.env = child_env(root)
        self.commands = []  # one dict per command
        self.outputs = []  # comparable output text per successful command
        self.spans = []
        self.problems = []
        self.cross_checks = 0
        self.cross_failed = 0

    def command(self, trace: int, threads: int) -> dict:
        """Run one command; `trace` is 0 (off), SPANS or MEMORY."""
        run_id = f"cmd{len(self.commands)}"
        out = self.work / run_id
        result_path = self.work / f"{run_id}.json"
        cmd = child_argv(self.workload, threads, self.seed, self.work, run_id, trace)
        record = {"id": run_id, "trace": trace, "threads": threads, "setup_s": None}
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                start_new_session=True)
        try:
            with selectors.DefaultSelector() as sel:
                sel.register(proc.stdout, selectors.EVENT_READ)
                if sel.select(timeout=max(0.0, self.deadline - perf_counter())):
                    if proc.stdout.readline().strip() == b"ready":
                        record["setup_s"] = perf_counter() - t0
            proc.communicate(timeout=max(0.0, self.deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            proc.stdout.close()
        record["elapsed_s"] = perf_counter() - t0
        self.add(record, proc.returncode, result_path, out)
        return record

    def add(self, record, returncode, result_path, out):
        """Check one finished command's outputs and count it in the run."""
        record["problems"] = self._check(returncode, result_path, out, record)
        self.problems += [f"{record['id']}: {p}" for p in record["problems"]]
        self.commands.append(record)
        shutil.rmtree(out, ignore_errors=True)

    def _check(self, returncode, result_path, out, record) -> list:
        if returncode != 0:
            return [f"command process exited with {returncode}"]
        try:
            result = json.loads(result_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return [f"no result record: {exc}"]
        self.spans += result.pop("spans", [])
        record.update(result)
        if result["rc"] != 0:
            return [f"driftsel exited with {result['rc']}"]
        if self.workload.n_values:
            path = out / "risk.csv"
            proxy = result["proxy_variance"] if record["threads"] == 1 else None
            problems = checks.check_risk(path, self.workload.n_values,
                                         self.workload.replications, self.reference, proxy)
        else:
            path = out / "renewal.csv"
            problems = checks.check_renewal(path, result["renewal"], self.reference)
        record["csv_bytes"] = sum(f.stat().st_size for f in out.glob("*.csv"))
        if not problems:
            self.outputs.append(checks.comparable(path))
        return problems

    @property
    def attempted(self) -> int:
        return len(self.commands) + self.cross_checks

    @property
    def failed(self) -> int:
        return sum(1 for c in self.commands if c["problems"]) + self.cross_failed

    def loop(self, seconds: float, trace: int, threads: int, minimum: int):
        t0 = perf_counter()
        done = 0
        while done < minimum or perf_counter() - t0 < seconds:
            if perf_counter() > self.deadline:
                break
            self.command(trace, threads)
            done += 1

    def determinism(self):
        """All successful outputs of the run must be identical."""
        if len(self.outputs) >= 2:
            self.cross_checks += 1
            if any(o != self.outputs[0] for o in self.outputs[1:]):
                self.cross_failed += 1
                self.problems.append("outputs differ between commands of one run")

    def end_to_end(self) -> dict:
        ok = [c for c in self.commands if not c["problems"]] or self.commands
        reps = self.workload.replications * max(1, len(self.workload.n_values))

        def worker_peak(c):
            return c["children_peak_rss_mb"] if c["threads"] > 1 else c["peak_rss_mb"]

        return {
            "wall_s": _median([c.get("wall_s", c["elapsed_s"]) for c in ok]),
            "setup_s": _median([c["setup_s"] or c["elapsed_s"] for c in ok]),
            "reps_per_s": _median([reps / c.get("wall_s", c["elapsed_s"]) for c in ok]),
            "peak_rss_mb": _median([c.get("peak_rss_mb", 0.0) for c in ok]),
            "worker_peak_rss_mb": _median([worker_peak(c) for c in ok if "peak_rss_mb" in c]
                                          or [0.0]),
        }

    def per_layer(self) -> dict:
        traced = [c for c in self.commands if c["trace"] == SPANS and "layers" in c]
        memory = [c for c in self.commands if c["trace"] == MEMORY and "layers" in c]
        plain = [c["wall_s"] for c in self.commands
                 if not c["trace"] and c["threads"] == 1 and "wall_s" in c]
        metrics = {}
        for name in PER_LAYER:
            source = memory if name.endswith(".peak_mb") else traced
            if name == "cli.csv_bytes":
                values = [c.get("csv_bytes", 0) for c in source]
            else:
                values = [c["layers"].get(name, 0.0) for c in source]
            metrics[name] = _median(values) if values else 0.0
        metrics["trace.overhead_s"] = (
            _median([c["wall_s"] for c in traced]) - _median(plain) if traced and plain else 0.0)
        return metrics


def environment(root: Path, seed: int) -> dict:
    """What the numbers depend on besides the code, recorded as found."""
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=git_env,
                                capture_output=True, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": {name: os.environ.get(name, "unset") for name in blas},
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small sizes, for tests")
    args = parser.parse_args(argv)
    # a terminated run still stops its command (the finally in Run.command)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "driftsel" / "cli.py").is_file():
        print(f"perfbench: {root} holds no driftsel source (src/driftsel); "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    table = workloads(args.tiny)
    if args.workload not in table:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(table)}",
              file=sys.stderr)
        return 2
    workload = table[args.workload]
    run = Run(root, workload, args.seed, args.tiny)
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            run.loop(args.seconds / 2, trace=0, threads=1, minimum=1)
            run.loop(args.seconds / 2, trace=SPANS, threads=1, minimum=1)
            run.command(trace=MEMORY, threads=1)
            if workload.threads > 1:
                run.command(trace=0, threads=workload.threads)
            metrics, units = run.per_layer(), PER_LAYER
        else:
            run.loop(args.seconds, trace=0, threads=workload.threads, minimum=MIN_COMMANDS)
            metrics, units = run.end_to_end(), END_TO_END
        run.determinism()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    if run.spans:
        spans_dir = root / ".perfbench" / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        (spans_dir / f"{workload.name}-seed{args.seed}.json").write_text(json.dumps(run.spans))
    attempted, failed = run.attempted, run.failed
    env = environment(root, args.seed)
    detail = {
        "workload": workload.name, "why": workload.why, "trace": args.trace,
        "tiny": args.tiny, "seconds": args.seconds, "environment": env,
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "problems": run.problems, "metrics": metrics, "commands": run.commands,
    }
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1))

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(run.commands)} commands, closed loop, 1 client")
    print("environment " + json.dumps(env, sort_keys=True))
    for problem in run.problems:
        print(f"FAILED {problem}")
    print(f"  {'failed_frac':<44} {failed / attempted:.4g} ({failed} of {attempted})")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
