"""One benchmark command in a fresh interpreter.

    python3 perfbench/child.py RESULT_JSON TRACE RUN_ID -- <driftsel argv>

TRACE is 0 (untraced), 1 (spans) or 2 (spans plus a tracemalloc peak
inside each memory layer; its times are not used).

The parent starts this script with `PYTHONPATH` pointing at the
checkout's `src`.  It imports `driftsel.cli`, resolves and validates the
config from the argv, then prints `ready` on stdout: the parent's clock
from process start to that line is the set-up time.  It then times
`driftsel.cli.main(argv)` and writes RESULT_JSON.

Besides times and memory, RESULT_JSON holds what the checker needs that
the CSVs do not show: each renewal solve's own convergence flag and
error estimate, and per n the count and mean of the proxy-variance
estimates of the paths (calls made in this process only, so none from
pool workers).
"""

import json
import resource
import statistics
import sys
from collections import defaultdict
from time import perf_counter

from spans import Tracer, layer_metrics


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def _observe(modules, attr, record):
    """Pass every call of `attr`, in each of `modules` that holds it, to
    `record(args, kwargs, result)`."""
    for module in modules.values():
        fn = getattr(module, attr, None)
        if fn is None:
            continue

        def call(*args, _fn=fn, **kwargs):
            result = _fn(*args, **kwargs)
            record(args, kwargs, result)
            return result

        setattr(module, attr, call)


def main() -> int:
    result_path, mode, run_id = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    trace = mode > 0
    argv = sys.argv[sys.argv.index("--") + 1:]

    import driftsel.cli as cli
    import driftsel.estimator
    import driftsel.noise
    import driftsel.risk

    cli.validate_config(cli.resolve_run_config(cli.build_parser().parse_args(argv)))
    print("ready", flush=True)

    modules = {m.__name__: m for m in (cli, driftsel.estimator, driftsel.noise, driftsel.risk)}
    solved = []
    sigma = defaultdict(list)  # n -> proxy-variance estimate of each path
    # result capture for the checker, in untraced runs too: one call per
    # renewal command, one per path (about 1 us each)
    _observe(modules, "solve_renewal_density", lambda a, k, result: solved.append(result))
    _observe(modules, "estimate_proxy_variance",
             lambda a, k, result: sigma[(a[0] if a else k["est"]).n].append(result))
    tracer = Tracer(run_id, memory=mode == 2)
    if trace:
        tracer.install(modules)
    t0 = perf_counter()
    if trace:
        rc = tracer.span("cli.main", cli.main, argv)
    else:
        rc = cli.main(argv)
    wall = perf_counter() - t0

    usage = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    record = {
        "rc": rc,
        "wall_s": wall,
        "cpu_s": sum(u.ru_utime + u.ru_stime for u in usage),
        "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_SELF),
        "children_peak_rss_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN),
        "renewal": [
            {"converged": bool(s.converged), "l1_error": float(s.l1_error),
             "upsilon_l1": float(s.upsilon_l1)}
            for s in solved
        ],
        "proxy_variance": {
            str(n): {"count": len(values), "mean": statistics.fmean(values)}
            for n, values in sigma.items()
        },
    }
    if trace:
        spans = tracer.export()
        record["spans"] = spans
        record["layers"] = layer_metrics(spans, tracer.counters, tracer.peaks)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
