"""Per-layer tracing installed from outside the program.

Each layer is a public function of a `driftsel` module.  A wrapper
replaces the attribute that the *calling* module looks up (for example
`driftsel.risk.sample_observations`, not `driftsel.noise.sample_observations`),
so the program itself is unchanged.  Every wrapped call records one span
(name, start, end, parent span, run id); spans stay in memory and are
written out when the command ends.  A site that no longer exists is
skipped, so a later refactor shows up as zero calls rather than a crash.

Tracing runs single-process (`--threads 1`): spans recorded in pool
workers would never reach the parent.
"""

import pickle
import tracemalloc
from collections import defaultdict
from time import perf_counter

# layer name -> (calling module, attribute) sites where the wrapper goes
LAYERS = {
    "noise.sample_observations": [("driftsel.risk", "sample_observations")],
    "signal.cell_integrals": [("driftsel.noise", "cell_integrals")],
    "estimator.estimate_coefficients": [("driftsel.risk", "estimate_coefficients")],
    "signal.grid_coefficients": [("driftsel.estimator", "grid_coefficients"),
                                 ("driftsel.risk", "grid_coefficients")],
    "estimator.estimate_proxy_variance": [("driftsel.estimator", "estimate_proxy_variance")],
    "estimator.build_weight_family": [("driftsel.risk", "build_weight_family")],
    "estimator.select_model": [("driftsel.risk", "select_model")],
    "signal.coefficients_to_grid": [("driftsel.estimator", "coefficients_to_grid")],
    "risk.run_risk_experiment": [("driftsel.cli", "run_risk_experiment")],
    "renewal.solve_renewal_density": [("driftsel.cli", "solve_renewal_density")],
}

# layers whose per-call tracemalloc peak a memory tracer records; tracemalloc
# runs only inside these calls so it does not slow the pure-Python layers
MEMORY_LAYERS = ("noise.sample_observations", "estimator.estimate_coefficients",
                 "renewal.solve_renewal_density")

# chunk runner: counted (chunks, pickled payload bytes) but not a span, so the
# oracle loop stays in run_risk_experiment's self time
CHUNK_SITE = ("driftsel.risk", "_run_chunk")


class Tracer:
    """Span recorder for one command process."""

    def __init__(self, run_id: str, memory: bool = False):
        self.run_id = run_id
        self.memory = memory
        self.spans = []  # [name, start, end, parent index or None]
        self.stack = []
        self.counters = defaultdict(float)
        self.peaks = defaultdict(float)  # layer -> largest per-call peak, bytes
        self._payloads = []

    def span(self, name, fn, *args, **kwargs):
        parent = self.stack[-1] if self.stack else None
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, parent])
        self.stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[index][2] = perf_counter()
            self.stack.pop()

    def _wrap(self, name, fn):
        tracer = self
        memory = self.memory and name in MEMORY_LAYERS

        def call(*args, **kwargs):
            started = memory and not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            try:
                result = tracer.span(name, fn, *args, **kwargs)
            finally:
                if started:
                    tracer.peaks[name] = max(tracer.peaks[name], tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            tracer._observe(name, args, kwargs, result)
            return result

        return call

    def _observe(self, name, args, kwargs, result):
        """Counts read off a layer's inputs and outputs, outside its span."""
        c = self.counters
        if name == "estimator.build_weight_family":
            members = getattr(result, "members", ())
            c["estimator.family.members"] += len(members)
            c["estimator.family.distinct_profiles"] += len(
                {m.values.tobytes() for m in members if hasattr(m, "values")})
        elif name == "estimator.select_model":
            family = args[1] if len(args) > 1 else kwargs.get("family")
            c["estimator.select_model.candidates"] += len(getattr(family, "members", ()))
        elif name == "risk.run_risk_experiment":
            config = args[0] if args else kwargs.get("config")
            if getattr(config, "oracle", False):
                c["risk.oracle.evals"] += c["estimator.family.members"] * config.replications
            c["risk.payload_bytes"] += sum(len(pickle.dumps(p)) for p in self._payloads)
            self._payloads.clear()
        elif name == "renewal.solve_renewal_density":
            c["renewal.grid_points"] += len(getattr(result, "rho", ()))
            c["renewal.converged"] = float(bool(getattr(result, "converged", False)))

    def _wrap_chunk(self, fn):
        def call(payload):
            self.counters["risk.chunks"] += 1
            self._payloads.append(payload)
            return fn(payload)

        return call

    def install(self, modules):
        """Replace every existing call site in `modules` (name -> module)."""
        sites = [(name, site) for name, group in LAYERS.items() for site in group]
        for name, (mod, attr) in sites + [(None, CHUNK_SITE)]:
            module = modules.get(mod)
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self._wrap_chunk(original) if name is None else self._wrap(name, original)
            setattr(module, attr, wrapper)

    def export(self):
        """Spans as JSON-ready dicts."""
        return [
            {"name": n, "start": s, "end": e, "parent": p, "run": self.run_id}
            for n, s, e, p in self.spans
        ]


def layer_metrics(spans, counters, peaks):
    """Per-layer totals for one traced command.

    For each layer: `.calls`, `.s` (inclusive busy time) and `.self_s`
    (inclusive time minus the time its direct child spans cover).
    """
    calls = defaultdict(int)
    total = defaultdict(float)
    child = defaultdict(float)
    for span in spans:
        duration = span["end"] - span["start"]
        calls[span["name"]] += 1
        total[span["name"]] += duration
        if span["parent"] is not None:
            child[spans[span["parent"]]["name"]] += duration
    out = {}
    for name in [*LAYERS, "cli.main"]:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = total[name]
        out[f"{name}.self_s"] = total[name] - child[name]
    for name in MEMORY_LAYERS:
        out[f"{name}.peak_mb"] = peaks.get(name, 0.0) / 2**20
    out.update(counters)
    members = counters.get("estimator.family.members", 0)
    out["estimator.family.distinct_ratio"] = (
        counters.get("estimator.family.distinct_profiles", 0) / members if members else 0.0)
    main_s = total["cli.main"]
    out["trace.coverage"] = child["cli.main"] / main_s if main_s else 0.0
    return out
