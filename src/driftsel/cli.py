"""Command-line front end: config files, presets, and CSV emission.

Configuration is a flat list of dotted key=value lines with one
canonical serialization, so a config embedded in a manifest can be
diffed and re-run byte for byte.  Precedence is defaults, then preset,
then config file, then explicit flags.  Every run writes a manifest
whose digest is stamped into each emitted CSV; the digest covers the
resolved config only, never wall-clock state or worker count, so reruns
with the same parameters are traceable to the same digest.

`main` validates the config once and hands each subcommand both it and
its `ExperimentConfig`.  `estimate` and `figures` fit through the risk
engine's sampler, `risk.replication_estimates`, so only `simulate`
builds an n*p path.
"""

import argparse
import hashlib
import math
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .estimator import family_knobs, select_model
from .noise import LevyJumpSpec, NoiseSpec, RngStream, sample_observations
from .renewal import InterarrivalLaw, solve_renewal_density
from .risk import (
    ExperimentConfig,
    replication_estimates,
    resolve_frequency,
    resolve_selection,
    run_risk_experiment,
)
from .signal import SignalSpec, cell_integrals, grid_values


class ConfigError(Exception):
    """Raised for malformed, unknown, or inconsistent configuration."""


@dataclass(frozen=True)
class RunConfig:
    """Flat, serializable view of everything a run can configure.

    Zero sentinels mean "derive from the sample size": k_star, eps, p,
    and renewal_horizon all switch to their rules when left at 0, and
    must not be negative.
    """

    seed: int = 0
    threads: int = 1
    strict_h5: bool = False
    signal_kind: str = "benchmark"
    signal_coefficients: tuple = ()
    signal_values: tuple = ()
    rho1: float = 0.5
    rho2: float = 0.5
    rho_check: float = 1.0
    interarrival: str = "chi_squared(3)"
    marks: str = "normal"
    jump_intensity: float = 0.0
    jump_law: str = "gaussian"
    k_star0: int = 100
    k_star: int = 0
    delta: str = "auto"
    eps: float = 0.0
    varsigma_star: float = 1.0
    n_values: tuple = (20, 100, 200, 1000)
    p: int = 100001
    p_min: int = 101
    replications: int = 10000
    estimate_n: int = 100
    renewal_h: float = 0.001
    renewal_horizon: float = 0.0


# (config key, RunConfig field, value kind); order fixes the canonical emission.
# threads is deliberately absent: worker count is an execution detail set only
# by the --threads flag, so it never reaches the digest and results stay
# byte-identical across thread counts.
_SCHEMA = (
    ("seed", "seed", "int"),
    ("strict_h5", "strict_h5", "bool"),
    ("signal.kind", "signal_kind", "str"),
    ("signal.coefficients", "signal_coefficients", "floats"),
    ("signal.values", "signal_values", "floats"),
    ("noise.rho1", "rho1", "float"),
    ("noise.rho2", "rho2", "float"),
    ("noise.rho_check", "rho_check", "float"),
    ("noise.interarrival", "interarrival", "str"),
    ("noise.marks", "marks", "str"),
    ("noise.jump_intensity", "jump_intensity", "float"),
    ("noise.jump_law", "jump_law", "str"),
    ("estimator.k_star0", "k_star0", "int"),
    ("estimator.k_star", "k_star", "int"),
    ("estimator.delta", "delta", "str"),
    ("estimator.eps", "eps", "float"),
    ("estimator.varsigma_star", "varsigma_star", "float"),
    ("risk.n_values", "n_values", "ints"),
    ("risk.p", "p", "int"),
    ("risk.p_min", "p_min", "int"),
    ("risk.replications", "replications", "int"),
    ("estimate.n", "estimate_n", "int"),
    ("renewal.h", "renewal_h", "float"),
    ("renewal.horizon", "renewal_horizon", "float"),
)

PRESETS = {
    "full-scale": {},
    "desk-scale": {"n_values": (20, 100), "p": 1001, "replications": 500, "k_star": 5},
}


def _serialize(value, kind):
    if kind == "int":
        return str(value)
    if kind == "float":
        return repr(float(value))
    if kind == "bool":
        return "true" if value else "false"
    if kind == "str":
        return value
    if kind == "ints":
        return ",".join(str(v) for v in value)
    if kind == "floats":
        return ",".join(repr(float(v)) for v in value)
    raise AssertionError(kind)


def _deserialize(key, text, kind):
    try:
        if kind == "int":
            return int(text)
        if kind == "bool":
            if text in ("true", "false"):
                return text == "true"
            raise ValueError("expected true or false")
        if kind == "str":
            return text
        if kind == "ints":
            return tuple(int(v) for v in text.split(",")) if text else ()
        if kind == "float":
            values = (float(text),)
        elif kind == "floats":
            values = tuple(float(v) for v in text.split(",")) if text else ()
        else:
            raise AssertionError(kind)
        if not all(map(math.isfinite, values)):
            raise ValueError("numbers must be finite")
        return values[0] if kind == "float" else values
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {text!r} ({exc})") from None


def emit_config(config: RunConfig) -> str:
    """Canonical text form; parse_config inverts it exactly."""
    lines = [f"{key}={_serialize(getattr(config, name), kind)}" for key, name, kind in _SCHEMA]
    return "\n".join(lines) + "\n"


def parse_config(text: str, base: RunConfig = None) -> RunConfig:
    """Apply key=value lines on top of `base`; unknown keys are errors."""
    by_key = {key: (name, kind) for key, name, kind in _SCHEMA}
    config = base if base is not None else RunConfig()
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in by_key:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        name, kind = by_key[key]
        config = replace(config, **{name: _deserialize(key, value.strip(), kind)})
    return config


def config_digest(config: RunConfig) -> str:
    return hashlib.sha256(emit_config(config).encode("utf-8")).hexdigest()


_LAW_PATTERN = re.compile(r"^([a-z_]+)\(([^)]*)\)$")


def _parse_interarrival(text: str) -> InterarrivalLaw:
    match = _LAW_PATTERN.match(text.replace(" ", ""))
    if not match:
        raise ConfigError(f"bad interarrival law {text!r}; expected name(args)")
    name, arg_text = match.groups()
    try:
        args = [float(a) for a in arg_text.split(",")] if arg_text else []
    except ValueError:
        raise ConfigError(f"bad interarrival arguments in {text!r}") from None
    try:
        if name == "exponential" and len(args) == 1:
            return InterarrivalLaw.exponential(args[0])
        if name == "gamma" and len(args) == 2:
            return InterarrivalLaw.gamma(args[0], args[1])
        if name == "chi_squared" and len(args) == 1:
            return InterarrivalLaw.chi_squared(args[0])
    except ValueError as exc:
        raise ConfigError(f"bad interarrival law {text!r}: {exc}") from None
    raise ConfigError(f"unsupported interarrival law {text!r}")


def build_signal(config: RunConfig) -> SignalSpec:
    if config.signal_kind == "benchmark":
        return SignalSpec.benchmark()
    if config.signal_kind == "trig":
        if not config.signal_coefficients:
            raise ConfigError("signal.kind=trig needs signal.coefficients")
        return SignalSpec.trig_polynomial(config.signal_coefficients)
    if config.signal_kind == "tabulated":
        if not config.signal_values:
            raise ConfigError("signal.kind=tabulated needs signal.values")
        return SignalSpec.tabulated(config.signal_values)
    raise ConfigError(f"unknown signal.kind {config.signal_kind!r}")


def build_noise(config: RunConfig) -> NoiseSpec:
    jumps = None
    if config.jump_intensity > 0.0:
        jumps = LevyJumpSpec(intensity=config.jump_intensity, law=config.jump_law)
    try:
        return NoiseSpec(
            rho1=config.rho1,
            rho2=config.rho2,
            rho_check=config.rho_check,
            interarrival=_parse_interarrival(config.interarrival),
            marks=config.marks,
            jumps=jumps,
        )
    except ValueError as exc:
        raise ConfigError(f"bad noise settings: {exc}") from None


def experiment_config(config: RunConfig) -> ExperimentConfig:
    """Materialize the risk-engine config, resolving all sentinels."""
    if config.delta in ("auto", "efficient"):
        delta, variant = None, config.delta
    else:
        try:
            delta, variant = float(config.delta), "auto"
            if not math.isfinite(delta):
                raise ValueError
        except ValueError:
            raise ConfigError(f"estimator.delta must be auto, efficient, or a finite number, got {config.delta!r}") from None
    try:
        return ExperimentConfig(
            signal=build_signal(config),
            noise=build_noise(config),
            n_values=config.n_values,
            p=config.p if config.p > 0 else None,
            p_min=config.p_min,
            replications=config.replications,
            base_seed=config.seed,
            threads=config.threads,
            strict_h5=config.strict_h5,
            eps=config.eps if config.eps > 0.0 else None,
            k_star=config.k_star if config.k_star > 0 else None,
            k_star0=config.k_star0,
            delta=delta,
            delta_variant=variant,
            varsigma_star=config.varsigma_star,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def validate_config(config: RunConfig) -> ExperimentConfig:
    """Reject an inconsistent config before anything is computed or
    written; return its materialized experiment.  Every n in
    risk.n_values must pass the weight-family and frequency rules (no
    family is built), and estimate.n the frequency rules."""
    for key, name, _ in _SCHEMA:
        # a negative zero-sentinel would otherwise silently mean "derive"
        if name in ("k_star", "eps", "p", "renewal_horizon") and getattr(config, name) < 0:
            raise ConfigError(f"{key} must be positive, or 0 to derive it, got {getattr(config, name)!r}")
    experiment = experiment_config(config)
    try:
        for n in experiment.n_values:
            family_knobs(n, experiment.eps, experiment.k_star, experiment.k_star0, None, experiment.varsigma_star)
            resolve_frequency(experiment, n)
        resolve_frequency(experiment, config.estimate_n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return experiment


@dataclass(frozen=True)
class RunManifest:
    subcommand: str
    config_text: str
    digest: str
    outputs: tuple
    version: str = __version__

    def render(self) -> str:
        lines = [
            "artifact=driftsel",
            f"version={self.version}",
            f"subcommand={self.subcommand}",
            f"manifest_digest={self.digest}",
        ]
        lines.extend(f"output={name}" for name in self.outputs)
        lines.append("--- config ---")
        lines.append(self.config_text.rstrip("\n"))
        return "\n".join(lines) + "\n"


def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path: Path, digest: str, header, rows):
    lines = [f"# manifest_digest={digest}", ",".join(header)]
    lines.extend(",".join(row) for row in rows)
    # the first file a run writes creates the output directory, so a run that fails leaves none
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _fit_one_path(experiment: ExperimentConfig, n: int, stream: int):
    """Weight family and selection result of one replication at sample size n."""
    p, family, delta = resolve_selection(experiment, n)
    drift_sums = n * cell_integrals(experiment.signal, p)
    est = replication_estimates(drift_sums, experiment.noise, n, RngStream(experiment.base_seed, stream))
    return family, select_model(est, family, delta)


def _write_fit(path: Path, digest: str, signal: SignalSpec, result):
    """Truth and fitted curve at the p in-period grid points."""
    p = result.p
    rows = zip(np.arange(1, p + 1) / p, grid_values(signal, p), result.grid_values())
    _write_csv(path, digest, ("t", "truth", "estimate"), (map(_fmt, row) for row in rows))


def _run_simulate(config: RunConfig, experiment: ExperimentConfig, out: Path, digest: str):
    n = config.estimate_n
    p = resolve_frequency(experiment, n)
    obs = sample_observations(experiment.signal, experiment.noise, n=n, p=p, rng=RngStream(config.seed, 0))
    rows = ((str(j), _fmt(j / p), _fmt(y)) for j, y in enumerate(obs.y))
    _write_csv(out / "path.csv", digest, ("j", "t", "y"), rows)
    return ["path.csv"]


def _run_estimate(config: RunConfig, experiment: ExperimentConfig, out: Path, digest: str):
    family, result = _fit_one_path(experiment, config.estimate_n, stream=0)
    _write_fit(out / "estimate.csv", digest, experiment.signal, result)
    rows = (
        (str(k), str(beta), _fmt(scale), _fmt(result.costs[k]), str(int(k == result.index)))
        for k, (beta, scale) in enumerate(family.members)
    )
    _write_csv(out / "selection.csv", digest, ("index", "beta", "scale", "cost", "selected"), rows)
    return ["estimate.csv", "selection.csv"]


def _run_risk_table(config: RunConfig, experiment: ExperimentConfig, out: Path, digest: str):
    rows = (
        (str(row.n), str(row.p), str(row.replications),
         *map(_fmt, (row.risk, row.risk_se, row.relative, row.oracle, row.seconds)))
        for row in run_risk_experiment(experiment).rows
    )
    _write_csv(out / "risk.csv", digest, ("n", "p", "N", "R_bar", "R_bar_se", "R_rel", "oracle", "seconds"), rows)
    return ["risk.csv"]


def _run_renewal_density(config: RunConfig, experiment: ExperimentConfig, out: Path, digest: str):
    horizon = config.renewal_horizon if config.renewal_horizon > 0.0 else None
    solution = solve_renewal_density(experiment.noise.interarrival, h=config.renewal_h, horizon=horizon)
    if not solution.converged:
        print(
            f"driftsel: warning: renewal solve did not converge by horizon {solution.horizon!r}; "
            "raise renewal.horizon or refine renewal.h",
            file=sys.stderr,
        )
    # Python floats repr exactly like the numpy scalars, without building 360k of them
    rows = (map(repr, row) for row in zip(solution.x.tolist(), solution.rho.tolist(), solution.upsilon.tolist()))
    _write_csv(out / "renewal.csv", digest, ("x", "rho", "upsilon"), rows)
    return ["renewal.csv"]


def _run_figures(config: RunConfig, experiment: ExperimentConfig, out: Path, digest: str):
    written = []
    for stream, n in enumerate(experiment.n_values):
        _, result = _fit_one_path(experiment, n, stream=stream)
        name = f"figure_n{n}.csv"
        _write_fit(out / name, digest, experiment.signal, result)
        written.append(name)
    return written


_HANDLERS = {
    "simulate": _run_simulate,
    "estimate": _run_estimate,
    "risk-table": _run_risk_table,
    "renewal-density": _run_renewal_density,
    "figures": _run_figures,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftsel",
        description="Adaptive periodic-drift estimation under semi-Markov noise.",
    )
    parser.add_argument("subcommand", choices=sorted(_HANDLERS))
    parser.add_argument("--config", metavar="PATH", help="key=value config file")
    parser.add_argument("--preset", choices=sorted(PRESETS), help="named parameter bundle")
    parser.add_argument("--seed", type=int, help="base seed for all randomness")
    parser.add_argument("--threads", type=int, help="worker processes for risk runs")
    parser.add_argument("--strict-h5", action="store_true", help="reject p below n^(5/6)")
    parser.add_argument("--out", metavar="DIR", default=".", help="output directory")
    return parser


def resolve_run_config(args) -> RunConfig:
    config = RunConfig()
    if args.preset:
        config = replace(config, **PRESETS[args.preset])
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        config = parse_config(path.read_text(encoding="utf-8"), base=config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.threads is not None:
        config = replace(config, threads=args.threads)
    if args.strict_h5:
        config = replace(config, strict_h5=True)
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_run_config(args)
        experiment = validate_config(config)
    except ConfigError as exc:
        print(f"driftsel: config error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    digest = config_digest(config)
    try:
        outputs = _HANDLERS[args.subcommand](config, experiment, out, digest)
        manifest = RunManifest(
            subcommand=args.subcommand,
            config_text=emit_config(config),
            digest=digest,
            outputs=tuple(outputs),
        )
        (out / "manifest.txt").write_text(manifest.render(), encoding="utf-8")
    except (ValueError, OSError) as exc:
        print(f"driftsel: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
