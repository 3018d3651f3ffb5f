"""Record the reference table that `checks.py` compares outputs against.

    python3 perfbench/make_reference.py

Run from the root of a checkout, on the commit whose outputs are the
reference.  Each risk workload's exact command runs once per seed
(`SEEDS` seeds from 100000, `TINY_SEEDS` for the `--tiny` sizes), as a
single-worker benchmark command (`child.py`), `JOBS` at a time.  The
mean and standard deviation over seeds of each row's `R_bar` and
`oracle`, and of each n's mean proxy-variance estimate, are stored per n.
The renewal workload is solved once: the trapezoid L1 norm of |upsilon|
read back from `renewal.csv` and the solver's own `l1_error` estimate
are stored.  Writes `perfbench/reference.json`.
"""

import json
import shutil
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

import checks
from run import child_argv, child_env, workloads

SEED0 = 100000
SEEDS = 40
TINY_SEEDS = 60
JOBS = 2
ROOT = Path.cwd()
WORK = ROOT / ".perfbench" / "reference"


def _one(job):
    """(size, workload name, seed) -> parsed output of one command."""
    size, name, seed = job
    workload = workloads(size == "tiny")[name]
    work = WORK / f"{size}-{name}-{seed}"  # each job writes its own config file
    work.mkdir()
    subprocess.run(child_argv(workload, 1, seed, work, "cmd"), cwd=ROOT, env=child_env(ROOT),
                   stdout=subprocess.DEVNULL, check=True, timeout=600)
    result = json.loads((work / "cmd.json").read_text(encoding="utf-8"))
    if result["rc"] != 0:
        raise RuntimeError(f"{work.name}: driftsel exited with {result['rc']}")
    if not workload.n_values:
        header, rows = checks.read_table(work / "cmd" / "renewal.csv")
        table = np.array(rows, dtype=float)
        x, ups = table[:, header.index("x")], table[:, header.index("upsilon")]
        solved = result["renewal"][0]
        return {"upsilon_l1_trapezoid": checks.trapezoid_l1(x, ups),
                "l1_error": solved["l1_error"], "converged": solved["converged"]}
    header, rows = checks.read_table(work / "cmd" / "risk.csv")
    col = {k: header.index(k) for k in ("n", "R_bar", "oracle")}
    return {r[col["n"]]: {"R_bar": float(r[col["R_bar"]]), "oracle": float(r[col["oracle"]]),
                          "proxy_variance": result["proxy_variance"][r[col["n"]]]["mean"]}
            for r in rows}


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    jobs = []
    for size, count in (("full", SEEDS), ("tiny", TINY_SEEDS)):
        for name, workload in workloads(size == "tiny").items():
            seeds = range(SEED0, SEED0 + (count if workload.n_values else 1))
            jobs += [(size, name, seed) for seed in seeds]
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        results = list(pool.map(_one, jobs))
    shutil.rmtree(WORK, ignore_errors=True)

    reference = {"full": {}, "tiny": {}}
    grouped = {}
    for (size, name, _), result in zip(jobs, results):
        grouped.setdefault((size, name), []).append(result)
    for (size, name), outs in grouped.items():
        if not workloads(size == "tiny")[name].n_values:
            reference[size][name] = outs[0]
            continue
        reference[size][name] = {
            n: {
                "seeds": len(outs),
                **{k: {"mean": statistics.fmean(o[n][k] for o in outs),
                       "sd": statistics.stdev(o[n][k] for o in outs)}
                   for k in ("R_bar", "oracle", "proxy_variance")},
            }
            for n in outs[0]
        }
    checks.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(json.dumps(reference, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
