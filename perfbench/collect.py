"""Repeat benchmark runs and record medians and quartiles in a BENCH file.

    python3 perfbench/collect.py --label NAME

Run from the root of a checkout.  For every workload in `BENCHMARK.json`,
runs `perfbench/run.py` once per seed in `SEEDS` with `--trace 0`, and
once per seed in `TRACE_SEEDS` with `--trace 1`, at the file's
`run_seconds`.  For each end-to-end metric it records the values, their
median, first and third quartiles (`statistics.quantiles(n=4)`) and the
spread (q3 - q1) / median, and notes a spread that is not below a third
of the metric's bound (`setup_s` is exempt, as only its median is
bound).  Per-layer metrics are recorded as medians over the trace runs.
Writes `perfbench/BENCH_<label>.json`.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = range(1, 11)
TRACE_SEEDS = (1,)


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    record = {"label": args.label, "run_seconds": spec["run_seconds"], "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = [run_once(name, s, spec["run_seconds"], 0) for s in SEEDS]
        traces = [run_once(name, s, spec["run_seconds"], 1) for s in TRACE_SEEDS]
        entry = {
            "seeds": list(SEEDS),
            "attempted": sum(r["attempted"] for r in runs + traces),
            "failed": sum(r["failed"] for r in runs + traces),
            "end_to_end": {},
            "per_layer": {
                metric: statistics.median(t["metrics"][metric]["value"] for t in traces)
                for metric in traces[0]["metrics"]
            },
        }
        detail = Path(".perfbench/results") / f"{name}-seed{SEEDS[-1]}-trace0.json"
        entry["environment"] = json.loads(detail.read_text())["environment"]
        print(f"{name}: {entry['failed']} failed of {entry['attempted']}")
        for metric, meta in bounds.items():
            stats = summarize([r["metrics"][metric]["value"] for r in runs])
            entry["end_to_end"][metric] = stats
            wide = metric != "setup_s" and stats["spread"] >= meta["bound"] / 3
            print(f"  {metric:<20} median {stats['median']:.6g} {meta['unit']}  "
                  f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  spread {stats['spread']:.4f}"
                  f"{'  (not below bound/3 = %.4f)' % (meta['bound'] / 3) if wide else ''}")
        record["workloads"][name] = entry

    out = HERE / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
