"""Command-line front end: config files, presets, and CSV emission.

Configuration is a flat list of dotted key=value lines with one
canonical serialization, so a config embedded in a manifest can be
diffed and re-run byte for byte.  Precedence is defaults, then preset,
then config file, then explicit flags.  Every run writes a manifest
whose digest is stamped into each emitted CSV; the digest covers the
resolved config only, never wall-clock state or worker count, so reruns
with the same parameters are traceable to the same digest.

The config itself, `risk.RunConfig`, and its defaults live with the
risk engine; this module owns its text form, the gate that `main` runs
before any handler, which builds no weight family, and the subcommands.
A config that breaks a rule raises `risk.ConfigError` where the rule is
checked, in the gate, where a handler builds its families or, for
`renewal-density`, before its solve, and so before any draw or output;
`main` exits 2 on it, and 1 on any other ValueError, OSError or
MemoryError.  A subcommand's handler only computes: it
returns its tables, file name to (header, columns), in output order,
with one array-like of numbers per column (ints, never bools).  `main`
alone turns values into text, each the `repr` of its Python int or
float, and writes the run: the CSVs, streamed a block of rows at a
time, and then the manifest naming them, after every table is
computed and every value found finite (a non-finite one is a
ValueError naming its file and column), so a run that fails creates no
output directory.  `estimate`
and `figures` fit through the risk engine's sampler,
`risk.replication_estimates`, so only `simulate` builds an n*p path.
"""

import argparse
import hashlib
import math
import sys
from dataclasses import astuple, fields, replace
from functools import cache
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from . import __version__
from .estimator import family_knobs, select_model
from .noise import renewal_chunk, sample_observations, stream_keys
from .renewal import grid_size, solve_renewal_density
from .risk import (
    ConfigError,
    RunConfig,
    block_rows,
    replication_estimates,
    resolve_frequency,
    resolve_selection,
    run_risk_experiment,
)
from .signal import SignalSpec, cell_integrals, grid_values


# rows formatted and written at a time: a table's text never exists whole
_BLOCK = 1 << 16
# renewal gaps one block of replications may draw at once, 128 MiB of float64
_MAX_GAP_VALUES = 1 << 24


PRESETS = {
    "full-scale": {},
    "desk-scale": {"n_values": (20, 100), "p": 1001, "replications": 500, "k_star": 5},
}


@cache
def _keyed_fields():
    """(key, field name, type) of each keyed RunConfig field, in field
    order, read once: get_type_hints costs more than a config's text."""
    types = get_type_hints(RunConfig)
    return tuple((f.metadata["key"], f.name, types[f.name]) for f in fields(RunConfig) if "key" in f.metadata)


def _text(value, kind):
    if kind is bool:
        return "true" if value else "false"
    if kind is float:
        return repr(float(value))
    if kind in (int, str):
        return str(value)
    [item, _] = get_args(kind)  # tuple[int, ...] or tuple[float, ...]
    return ",".join(_text(v, item) for v in value)


def _value(text, kind):
    """The value of type `kind` that `text` spells; ValueError if none."""
    if kind is bool:
        if text in ("true", "false"):
            return text == "true"
        raise ValueError("expected true or false")
    if kind in (int, str):
        return kind(text)
    if kind is float:
        values = (float(text),)
    else:
        [item, _] = get_args(kind)
        values = tuple(map(item, text.split(","))) if text else ()
    if not all(math.isfinite(v) for v in values if isinstance(v, float)):
        raise ValueError("numbers must be finite")
    return values[0] if kind is float else values


def emit_config(config: RunConfig) -> str:
    """Canonical text form; parse_config inverts it exactly."""
    lines = [f"{key}={_text(getattr(config, name), kind)}" for key, name, kind in _keyed_fields()]
    return "\n".join(lines) + "\n"


def parse_config(text: str, base: RunConfig = None) -> RunConfig:
    """Apply key=value lines on top of `base`; unknown keys are errors."""
    by_key = {key: (name, kind) for key, name, kind in _keyed_fields()}
    config = base if base is not None else RunConfig()
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in by_key:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        name, kind = by_key[key]
        try:
            value = _value(value, kind)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {value!r} ({exc})") from None
        try:
            config = replace(config, **{name: value})
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {exc}") from None
    return config


def config_digest(config: RunConfig) -> str:
    return hashlib.sha256(emit_config(config).encode("utf-8")).hexdigest()


def _check_gap_draw(config: RunConfig, n: int, rows: int) -> None:
    """Refuse n when a block of `rows` replications would draw more
    renewal gaps at once than _MAX_GAP_VALUES."""
    chunk = renewal_chunk(config.noise.interarrival, float(n))
    if rows * chunk > _MAX_GAP_VALUES:
        raise ValueError(
            f"renewal epochs at n={n}: {rows} replications x {chunk:.0f} gaps at once exceed the limit of "
            f"{_MAX_GAP_VALUES} values; lower n or raise the mean of noise.interarrival (now {config.interarrival})")


def validate_config(config: RunConfig) -> None:
    """Reject an inconsistent config before anything is computed or
    written, without building a weight family.  RunConfig itself checks
    the rules of one field; this checks the rules that join fields: the
    signal and noise settings, the weight-family knobs (member count
    included), frequency rules and renewal gap budget for every n in
    risk.n_values, whose replications draw a block at a time, and the
    frequency rules and gap budget of one replication for estimate.n.
    The rules that need a built family, its weight sums and the scoring
    budget, and the family knobs at estimate.n, where `estimate` alone
    fits one, are checked where a handler builds the family, which raises
    ConfigError too.  Raises ConfigError."""
    try:
        config.signal, config.noise  # built here once, and cached for the handler
        for n in config.n_values:
            family_knobs(n, config.eps or None, config.k_star or None, config.k_star0, config.varsigma_star)
            rows = block_rows(n, resolve_frequency(config, n), config.noise)
            _check_gap_draw(config, n, min(rows, config.replications))
        resolve_frequency(config, config.estimate_n)
        _check_gap_draw(config, config.estimate_n, 1)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _fit_one_path(config: RunConfig, n: int, selection, stream: int):
    """Selection result of one replication at sample size n, over
    `selection`, the (p, family, delta) of resolve_selection at n."""
    p, family, delta = selection
    drift_sums = n * cell_integrals(config.signal, p)
    [est] = replication_estimates(drift_sums, config.noise, n, stream_keys(config.seed, stream, stream + 1))
    return select_model(est, family, delta)


def _fit_table(signal: SignalSpec, result):
    """Truth and fitted curve at the p in-period grid points."""
    p = result.p
    return ("t", "truth", "estimate"), (np.arange(1, p + 1) / p, grid_values(signal, p), result.grid_values())


def _run_simulate(config: RunConfig):
    n = config.estimate_n
    p = resolve_frequency(config, n)
    [keys] = stream_keys(config.seed, 0, 1)
    obs = sample_observations(config.signal, config.noise, n=n, p=p, keys=keys)
    j = np.arange(obs.y.size)
    return {"path.csv": (("j", "t", "y"), (j, j / p, obs.y))}


def _run_estimate(config: RunConfig):
    selection = resolve_selection(config, config.estimate_n)
    result = _fit_one_path(config, config.estimate_n, selection, stream=0)
    family = selection[1]
    index = np.arange(family.profile_of.size)
    columns = (index, family.beta, family.scale, result.costs, (index == result.index).astype(int))
    return {
        "estimate.csv": _fit_table(config.signal, result),
        "selection.csv": (("index", "beta", "scale", "cost", "selected"), columns),
    }


def _run_risk_table(config: RunConfig):
    columns = zip(*map(astuple, run_risk_experiment(config)))  # RiskRow's fields in header order
    return {"risk.csv": (("n", "p", "N", "R_bar", "R_bar_se", "R_rel", "oracle", "seconds"), columns)}


def _check_renewal_grid(config: RunConfig) -> None:
    """Refuse a renewal step or horizon that the solve's grid rules
    (`renewal.grid_size`) reject, as a ConfigError.  They read the config
    alone, but only `renewal-density` solves, so only it checks them: a
    law too fine for the default step still draws risk-table
    replications."""
    try:
        grid_size(config.noise.interarrival, config.renewal_h, config.renewal_horizon or None)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _run_renewal_density(config: RunConfig):
    _check_renewal_grid(config)
    horizon = config.renewal_horizon or None
    solution = solve_renewal_density(config.noise.interarrival, h=config.renewal_h, horizon=horizon)
    if not solution.converged:
        print(
            f"driftsel: warning: renewal solve did not converge by horizon {solution.horizon!r}; "
            "raise renewal.horizon or refine renewal.h",
            file=sys.stderr,
        )
    return {"renewal.csv": (("x", "rho", "upsilon"), (solution.x, solution.rho, solution.upsilon))}


def _run_figures(config: RunConfig):
    # every n's family is built, and so checked, before the first fit
    selections = {n: resolve_selection(config, n) for n in config.n_values}
    return {
        f"figure_n{n}.csv": _fit_table(config.signal, _fit_one_path(config, n, selection, stream))
        for stream, (n, selection) in enumerate(selections.items())
    }


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
    parser.add_argument("--threads", type=int, help="processes computing a risk table, this one included")
    parser.add_argument("--strict-h5", action="store_true", help="reject p below n^(5/6)")
    parser.add_argument("--out", metavar="DIR", default=".", help="output directory")
    return parser


def resolve_run_config(args) -> RunConfig:
    config = RunConfig(**PRESETS[args.preset]) if args.preset else RunConfig()
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        config = parse_config(text, base=config)
    flags = {"seed": args.seed, "threads": args.threads, "strict_h5": args.strict_h5 or None}
    try:
        return replace(config, **{name: value for name, value in flags.items() if value is not None})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_run_config(args)
        validate_config(config)
        tables = {name: (header, [np.asarray(column) for column in columns])
                  for name, (header, columns) in _HANDLERS[args.subcommand](config).items()}
        for name, (header, columns) in tables.items():
            for label, column in zip(header, columns):
                # a block at a time, as they are written: no column-sized temporary
                if not all(np.isfinite(column[a : a + _BLOCK]).all() for a in range(0, len(column), _BLOCK)):
                    raise ValueError(f"{name}: column {label} holds a non-finite number")
        out = Path(args.out)
        digest = config_digest(config)
        out.mkdir(parents=True, exist_ok=True)
        for name, (header, columns) in tables.items():
            with (out / name).open("w", encoding="utf-8") as f:
                f.write(f"# manifest_digest={digest}\n{','.join(header)}\n")
                for a in range(0, len(columns[0]), _BLOCK):
                    rows = zip(*(column[a : a + _BLOCK].tolist() for column in columns), strict=True)
                    f.writelines(",".join(map(repr, row)) + "\n" for row in rows)
        manifest = [
            "artifact=driftsel",
            f"version={__version__}",
            f"subcommand={args.subcommand}",
            f"manifest_digest={digest}",
            *(f"output={name}" for name in tables),
            "--- config ---",
            emit_config(config).rstrip("\n"),
        ]
        (out / "manifest.txt").write_text("\n".join(manifest) + "\n", encoding="utf-8")
    except ConfigError as exc:
        print(f"driftsel: config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as exc:
        print(f"driftsel: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
