"""Correctness checks on the files a benchmark command writes.

Risk tables are checked against `reference.json`, recorded at the
commit that introduced the benchmark by running each workload's exact
command at many seeds (`make_reference.py`).  A command's `R_bar` and
`oracle` must lie within `Z` combined standard errors of the reference
mean, where one standard error is the seed-to-seed standard deviation
of that command-level value.  A sampler that is exact in law but draws
from new random streams therefore passes, while one biased by more than
a few standard errors fails.

`R_bar` varies too much between seeds on short runs to catch a wrong
noise level (on `highfreq` its band contains 0).  So a single-process
command also reports the mean proxy-variance estimate of its paths per
n, which estimates the noise level rho1^2 + rho2^2 / tau_bar to within
a few percent, and that mean must lie within `Z` combined standard
errors of its reference as well.

Renewal tables must be nonnegative, come from a solve that converged,
and reproduce the reference L1 norm of the ergodic deviation to within
a multiple of the solver's own Richardson error estimate.
"""

import json
import math
from pathlib import Path

import numpy as np

Z = 5.0
L1_TOLERANCE_FACTOR = 4.0
REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference(path=REFERENCE_PATH) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def read_table(path):
    """(header, rows) of a driftsel CSV; `#` comment lines are skipped."""
    lines = [
        line for line in Path(path).read_text(encoding="utf-8").splitlines()
        if line and not line.startswith("#")
    ]
    if not lines:
        raise ValueError(f"{path} holds no table")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != len(header) for row in rows):
        raise ValueError(f"{path} has ragged rows")
    return header, rows


def _near_reference(label, value, ref, seeds) -> list:
    """A problem unless `value` is within Z combined standard errors of
    `ref` ({"mean", "sd"} over `seeds` reference commands)."""
    combined = ref["sd"] * math.sqrt(1.0 + 1.0 / seeds)
    if abs(value - ref["mean"]) <= Z * combined:
        return []
    return [f"{label}={value!r} is {abs(value - ref['mean']) / combined:.1f} "
            f"standard errors from the reference {ref['mean']!r} (limit {Z})"]


def check_risk(path, n_values, replications, reference, proxy=None) -> list:
    """Problems found in one risk.csv; an empty list means it passed.

    `reference` maps str(n) to {"R_bar": {"mean", "sd"}, "oracle": {...},
    "proxy_variance": {...}, "seeds": S} for this workload shape.
    `proxy` maps str(n) to the {"count", "mean"} of the command's
    proxy-variance estimates; None skips that check (pool commands,
    whose paths are estimated in the workers).
    """
    try:
        header, rows = read_table(path)
        col = {name: header.index(name) for name in ("n", "N", "R_bar", "oracle")}
    except (OSError, ValueError) as exc:
        return [f"unreadable risk table: {exc}"]
    problems = []
    seen = [row[col["n"]] for row in rows]
    if seen != [str(n) for n in n_values]:
        problems.append(f"rows for n={seen}, expected {list(n_values)}")
    for row in rows:
        n = row[col["n"]]
        if row[col["N"]] != str(replications):
            problems.append(f"n={n}: N={row[col['N']]}, expected {replications}")
        ref = reference.get(n)
        if ref is None:
            problems.append(f"n={n}: no reference")
            continue
        for name in ("R_bar", "oracle"):
            try:
                value = float(row[col[name]])
            except ValueError:
                value = math.nan
            problems += _near_reference(f"n={n}: {name}", value, ref[name], ref["seeds"])
    for n in n_values if proxy is not None else ():
        seen = proxy.get(str(n), {"count": 0})
        if seen["count"] != replications:
            problems.append(f"n={n}: {seen['count']} proxy-variance estimates, "
                            f"expected {replications}")
        elif str(n) in reference:
            problems += _near_reference(f"n={n}: mean proxy variance", seen["mean"],
                                        reference[str(n)]["proxy_variance"],
                                        reference[str(n)]["seeds"])
    return problems


def trapezoid_l1(x, y) -> float:
    a = np.abs(y)
    return float(np.sum(0.5 * (a[1:] + a[:-1]) * np.diff(x)))


def check_renewal(path, solutions, reference) -> list:
    """Problems found in one renewal.csv and the solver results behind it.

    `solutions` holds what the solve returned ({"converged", ...}), one
    per call; `reference` holds "upsilon_l1_trapezoid" and "l1_error".
    """
    try:
        header, rows = read_table(path)
        table = np.array(rows, dtype=float)
        x, rho, ups = (table[:, header.index(name)] for name in ("x", "rho", "upsilon"))
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable renewal table: {exc}"]
    problems = []
    if len(solutions) != 1:
        problems.append(f"expected one renewal solve, saw {len(solutions)}")
    elif not solutions[0]["converged"]:
        problems.append("renewal solve did not converge")
    if not np.all(rho >= 0.0):
        problems.append("rho has negative entries")
    l1 = trapezoid_l1(x, ups)
    tolerance = L1_TOLERANCE_FACTOR * reference["l1_error"]
    if not abs(l1 - reference["upsilon_l1_trapezoid"]) <= tolerance:
        problems.append(
            f"trapezoid L1 of |upsilon| = {l1!r}, reference "
            f"{reference['upsilon_l1_trapezoid']!r} +- {tolerance:.2e}"
        )
    return problems


def comparable(path) -> str:
    """Output text with the wall-clock `seconds` column removed, the only
    part that may differ between reruns and thread counts."""
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    comments = [line for line in lines if line.startswith("#")]
    header, rows = read_table(path)
    keep = [i for i, name in enumerate(header) if name != "seconds"]
    return "\n".join(comments + [",".join(r[i] for i in keep) for r in [header, *rows]])
