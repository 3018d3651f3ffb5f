"""Tests for config parsing, manifests, and the CSV-emitting subcommands."""

import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import driftsel
import driftsel.risk

from driftsel.cli import (
    ConfigError,
    PRESETS,
    RunConfig,
    build_parser,
    config_digest,
    emit_config,
    main,
    parse_config,
    resolve_run_config,
    validate_config,
    _fit_one_path,
)
from driftsel.estimator import (
    build_weight_family,
    default_delta,
    efficient_delta,
    family_knobs,
    select_model,
)
from driftsel.noise import renewal_chunk, sample_observations, stream_keys
from driftsel.renewal import InterarrivalLaw
from driftsel.risk import projects, replication_estimates, resolve_delta, resolve_frequency, resolve_plan
from driftsel.signal import grid_values
from reference_coeffs import estimate_coefficients
from reference_family import members


def read_csv(path):
    lines = path.read_text().splitlines()
    digest = lines[0].removeprefix("# manifest_digest=")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return digest, header, rows


def masked_rows(rows, drop_col):
    return [[v for k, v in enumerate(row) if k != drop_col] for row in rows]


def test_config_roundtrip():
    default = RunConfig()
    assert parse_config(emit_config(default)) == default
    # every keyed field off its default, so each annotated type makes the trip
    tweaked = RunConfig(
        seed=99,
        strict_h5=True,
        signal_kind="trig",
        signal_coefficients=(0.1, -0.25, 1.0 / 7.0),
        signal_values=(0.0, 1.5, -2.0),
        rho1=1.0 / 3.0,
        rho2=0.25,
        rho_check=0.75,
        interarrival="gamma(2.0,1.0)",
        marks="rademacher",
        jump_intensity=2.5,
        jump_law="two_point",
        k_star0=50,
        k_star=3,
        delta="0.05",
        eps=0.2,
        varsigma_star=2.0,
        n_values=(10, 20),
        p=501,
        p_min=51,
        replications=7,
        estimate_n=30,
        renewal_h=0.01,
        renewal_horizon=12.5,
    )
    assert [f.name for f in fields(RunConfig) if "key" in f.metadata and getattr(tweaked, f.name) == f.default] == []
    assert parse_config(emit_config(tweaked)) == tweaked


def test_parse_rejects_malformed_input():
    with pytest.raises(ConfigError):
        parse_config("volume=11\n")                    # unknown key
    with pytest.raises(ConfigError):
        parse_config("seed=1\nseed=2\n")               # duplicate
    with pytest.raises(ConfigError):
        parse_config("seed=abc\n")
    with pytest.raises(ConfigError):
        parse_config("just a line\n")
    with pytest.raises(ConfigError):
        parse_config("strict_h5=yes\n")


def test_replications_stop_at_the_stream_count():
    # replication r draws from stream r, and a seed's stream indices stop
    # below 2**32: a larger count is refused before any run is planned
    assert RunConfig(replications=2**32).replications == 2**32
    with pytest.raises(ValueError, match="replications"):
        RunConfig(replications=2**32 + 1)
    with pytest.raises(ConfigError, match="replications"):
        parse_config(f"risk.replications={2**32 + 1}\n")


def test_parse_layers_on_base():
    base = RunConfig(seed=5, threads=2)
    merged = parse_config("# comment\n\nrisk.replications=50\n", base=base)
    assert merged.seed == 5
    assert merged.threads == 2
    assert merged.replications == 50


def test_presets():
    desk = RunConfig(**PRESETS["desk-scale"])
    assert desk.n_values == (20, 100)
    assert desk.p == 1001
    assert desk.replications == 500
    assert RunConfig(**PRESETS["full-scale"]) == RunConfig()


def test_readme_key_table_matches_the_schema():
    # besides RunConfig, README's key table is the only place that states
    # the defaults: it lists every config key in RunConfig's field order, each with
    # the text a default run's manifest carries; one row pairs noise.rho1
    # with noise.rho2, and `empty` stands for an empty tuple
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    [table] = re.findall(r"^Keys and defaults:\n\n(.*?)\n\n", readme, re.S | re.M)
    documented = []
    for line in table.splitlines()[2:]:
        key_cell, default_cell = line.split("|")[1:3]
        keys = re.findall(r"`([^`]+)`", key_cell)
        values = ["" if v == "empty" else v.strip("`") for v in default_cell.strip().split(" / ")]
        documented += zip(keys, values, strict=True)
    emitted = [tuple(line.split("=", 1)) for line in emit_config(RunConfig()).splitlines()]
    assert [key for key, _ in emitted] == [f.metadata["key"] for f in fields(RunConfig) if "key" in f.metadata]
    assert documented == emitted


def test_digest_tracks_content():
    assert config_digest(RunConfig()) != config_digest(RunConfig(seed=1))
    assert config_digest(RunConfig()) == config_digest(RunConfig())


def test_thread_count_never_reaches_the_text_form():
    # a worker count changes wall-clock time only, so it has no key
    assert config_digest(RunConfig(threads=4)) == config_digest(RunConfig())
    with pytest.raises(ConfigError, match="unknown config key 'threads'"):
        parse_config("threads=2\n")


def test_the_threads_flag_is_bounded():
    # a risk table forks min(threads, chunks) - 1 workers; the flag is
    # refused as the config is resolved, so no process starts here
    assert resolve_run_config(build_parser().parse_args(["risk-table", "--threads", "256"])).threads == 256
    with pytest.raises(ConfigError, match="threads must be at most 256"):
        resolve_run_config(build_parser().parse_args(["risk-table", "--threads", "257"]))


def test_interarrival_parsing():
    assert RunConfig(interarrival="exponential(1)").noise.interarrival == InterarrivalLaw.gamma(1.0, 1.0)
    assert RunConfig(interarrival="gamma(2, 1)").noise.interarrival.mean() == pytest.approx(2.0)
    assert RunConfig().noise.interarrival == InterarrivalLaw.chi_squared(3.0)
    for bad in ("weibull(1)", "gamma(1)", "chi_squared(abc)", "exponential", "exponential(-1)",
                "exponential(inf)", "chi_squared(nan)", "gamma(inf,1)"):
        with pytest.raises(ValueError):
            RunConfig(interarrival=bad).noise
        with pytest.raises(ConfigError):
            validate_config(RunConfig(interarrival=bad))


def test_signal_building():
    assert RunConfig().signal.kind == "benchmark"
    trig = RunConfig(signal_kind="trig", signal_coefficients=(1.0, 0.5)).signal
    assert trig.kind == "trig_polynomial"
    for bad in (RunConfig(signal_kind="trig"), RunConfig(signal_kind="spline")):
        with pytest.raises(ValueError):
            bad.signal
        with pytest.raises(ConfigError):
            validate_config(bad)


def test_noise_building():
    plain = RunConfig().noise
    assert (plain.rho1, plain.rho2, plain.rho_check, plain.marks) == (0.5, 0.5, 1.0, "normal")
    assert (plain.jump_intensity, plain.jump_law) == (0.0, "gaussian")   # no jump part
    config = RunConfig(rho_check=0.5, jump_intensity=2.0, jump_law="two_point")
    assert config.noise is config.noise                 # built once
    assert (config.noise.jump_intensity, config.noise.jump_law) == (2.0, "two_point")
    # a Brownian weight below 1 without a jump part, and an unknown law without one
    for bad in (RunConfig(rho_check=0.5), RunConfig(jump_law="stable")):
        with pytest.raises(ValueError):
            bad.noise
        with pytest.raises(ConfigError):
            validate_config(bad)


def test_zero_sentinels_are_read_directly():
    # p, k_star and eps at 0 take their sample-size rules, and the delta
    # text is read as it stands
    default = RunConfig()
    plan = resolve_plan(default, 100)
    assert plan.p == 100001
    assert members(plan.family) == members(build_weight_family(100, plan.p))
    assert plan.delta == default_delta(100)
    plan = resolve_plan(RunConfig(p=0, k_star=5, eps=0.3, delta="0.05"), 100)
    assert plan.p == resolve_frequency(RunConfig(p=0), 100) == 101
    assert members(plan.family)[-1] == (5, 11 * 0.3)
    assert plan.delta == 0.05
    assert resolve_delta(RunConfig(delta="efficient"), 100) == efficient_delta(100)
    with pytest.raises(ValueError):
        RunConfig(delta="fast")
    with pytest.raises(ConfigError):
        parse_config("estimator.delta=fast\n")


def test_strict_h5_validation():
    with pytest.raises(ConfigError):
        validate_config(RunConfig(p=10, n_values=(100,), strict_h5=True))
    validate_config(RunConfig(p=1001, n_values=(100,), estimate_n=100, strict_h5=True))


def test_main_rejects_bad_config(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("volume=11\n")
    assert main(["risk-table", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert main(["risk-table", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 2
    assert (
        main(["risk-table", "--preset", "desk-scale", "--strict-h5", "--seed", "1",
              "--config", str(write_cfg(tmp_path, "risk.p=10\n")), "--out", str(tmp_path)])
        == 2
    )
    tiny = write_cfg(tmp_path, "risk.n_values=20\nrisk.p=101\nrisk.replications=2\n", "tiny.cfg")
    assert main(["risk-table", "--config", str(tiny), "--threads", "0", "--out", str(tmp_path)]) == 2
    flat = write_cfg(tmp_path, "estimator.varsigma_star=0\n", "flat.cfg")
    assert main(["risk-table", "--config", str(flat), "--out", str(tmp_path)]) == 2


def test_main_rejects_a_config_that_is_not_utf8(tmp_path, capsys):
    # a decode error is a config error like any other, not a traceback
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"seed=1\n\xff\xfe\n")
    out = tmp_path / "out"
    assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(cfg) in err and "Traceback" not in err
    assert not out.exists()


def test_main_reads_a_config_from_a_pipe(tmp_path, capsys):
    # a config need not be a regular file (a shell's <(...) is a pipe);
    # a missing one is "not found", and one that cannot be read is named
    read, write = os.pipe()
    os.write(write, b"estimate.n=10\nrisk.p=101\nestimator.k_star=2\n")
    os.close(write)
    try:
        assert main(["estimate", "--config", f"/dev/fd/{read}", "--out", str(tmp_path / "est")]) == 0
    finally:
        os.close(read)
    assert "risk.p=101" in (tmp_path / "est" / "manifest.txt").read_text()
    for path, message in ((tmp_path / "nope.cfg", "config file not found: "),
                          (tmp_path, "cannot read config file ")):
        assert main(["estimate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"driftsel: config error: {message}{path}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "setting",
    ["noise.interarrival=exponential(inf)", "noise.interarrival=chi_squared(nan)",
     "noise.interarrival=gamma(inf,1)", "noise.rho1=nan"],
)
def test_main_rejects_non_finite_noise(tmp_path, capsys, setting):
    cfg = write_cfg(tmp_path, f"{setting}\nrisk.n_values=20\nrisk.p=101\nrisk.replications=2\n")
    out = tmp_path / "out"
    assert main(["risk-table", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not (out / "risk.csv").exists()


@pytest.mark.parametrize(
    "setting",
    ["estimator.delta=nan", "estimator.delta=inf", "estimator.eps=nan", "estimator.eps=-0.5",
     "estimator.k_star=-1", "risk.p=-5", "renewal.horizon=nan", "renewal.horizon=-1", "renewal.h=nan",
     "signal.kind=trig\nsignal.coefficients=1,nan", "signal.kind=tabulated\nsignal.values=0,inf,1",
     "noise.jump_intensity=-1", "risk.replications=1", "estimator.delta=fast", "risk.n_values=",
     "estimator.varsigma_star=0", "estimator.varsigma_star=-1", "--threads 0", "--threads -3",
     "noise.jump_law=foo", "renewal.h=-1", "renewal.h=0", "risk.n_values=20,20"],
)
def test_main_rejects_bad_numbers(tmp_path, capsys, setting):
    # non-finite numbers, and negative zero-sentinels, would otherwise run
    # to the end (or fail late) with a derived value the manifest misstates;
    # these and RunConfig's other single-field rules fail as the config is read
    subcommand = "renewal-density" if setting.startswith("renewal.") else "estimate"
    flags = setting.split() if setting.startswith("--") else []
    cfg = write_cfg(tmp_path, f"{'' if flags else setting}\nestimate.n=10\n")
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(cfg), *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "subcommand, text",
    [("risk-table", f"risk.n_values=1{'0' * 400}\n"), ("simulate", f"estimate.n=1{'0' * 400}\n"),
     ("risk-table", "risk.n_values=100000000000000000000\nrisk.p=1001\nnoise.interarrival=exponential(1e-20)\n"
                    "estimator.eps=0.5\nestimator.k_star=1\nrisk.replications=2\n")],
    ids=["n_values_overflows_a_float", "estimate_n_overflows_a_float", "n_values_above_2_53"],
)
def test_main_refuses_an_n_above_2_53(tmp_path, capsys, subcommand, text):
    # the engine reads n as a float, exact only up to 2**53: such an n
    # once ended in an OverflowError's traceback, or in a TypeError after
    # the whole table was computed
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(write_cfg(tmp_path, text)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("driftsel: config error: ") and err.count("\n") == 1 and "2**53" in err
    assert not out.exists()


def test_an_n_of_2_53_is_a_config():
    n = 2**53
    config = parse_config(f"risk.n_values={n}\nestimate.n={n}\n")
    assert (config.n_values, config.estimate_n) == ((n,), n)
    for bad in ({"n_values": (20, n + 1)}, {"estimate_n": n + 1}):
        with pytest.raises(ValueError, match=r"at most 2\*\*53"):
            RunConfig(**bad)


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("subcommand", ["risk-table", "estimate", "simulate"])
def test_main_rejects_negative_seed(tmp_path, capsys, subcommand, source):
    # numpy would refuse it only inside the run, after the output directory exists
    seed_line = "seed=-1\n" if source == "config" else ""
    cfg = write_cfg(tmp_path, f"{seed_line}risk.n_values=20\nrisk.p=101\nrisk.replications=2\nestimate.n=10\n")
    flags = ["--seed", "-1"] if source == "flag" else []
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(cfg), *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "seed" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("exc", [MemoryError("Unable to allocate 745. GiB for an array"), MemoryError()])
def test_main_reports_a_failed_allocation(tmp_path, capsys, monkeypatch, exc):
    # a huge request (a short mean interarrival time at a large n*p) fails
    # inside the sampler of either route (n = 10 projects at p = 101, n =
    # 40 does not); it is one line on stderr, not a traceback
    def refuse(*args, **kwargs):
        raise exc

    for n, sampler, projected in ((10, "sample_period_terms", True), (40, "sample_period_sums", False)):
        assert projects(n, 101, RunConfig().noise) == projected
        with monkeypatch.context() as patch:
            patch.setattr(f"driftsel.risk.{sampler}", refuse)
            cfg = write_cfg(tmp_path, f"risk.p=101\nestimate.n={n}\n")
            out = tmp_path / f"out{n}"
            assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"driftsel: {exc if str(exc) else 'MemoryError'}\n"
        assert not out.exists()


@pytest.mark.parametrize(
    "subcommand, settings, named",
    [
        ("risk-table", "noise.rho1=1e300\nnoise.rho2=1e300\n", "risk.csv: column R_bar"),
        ("estimate", "noise.rho1=1e300\nnoise.rho2=1e300\n", "selection.csv: column cost"),
        ("risk-table", "signal.kind=tabulated\nsignal.values=1,1e308\n", "risk.csv: column R_bar"),
    ],
    ids=["risk_table_noise", "estimate_noise", "risk_table_signal"],
)
def test_main_writes_no_non_finite_number(tmp_path, capsys, subcommand, settings, named):
    # finite settings whose arithmetic overflows gave inf and nan rows, and
    # nan costs that selected member 0; main checks every value before it
    # creates the output directory
    cfg = write_cfg(tmp_path, f"{settings}risk.n_values=20\nrisk.p=101\nrisk.replications=3\nestimate.n=20\n")
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"driftsel: {named} holds a non-finite number\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, named", [(["risk-table", "--threads", "1"], "risk.csv: column R_bar"),
                                         (["risk-table", "--threads", "2"], "risk.csv: column R_bar"),
                                         (["estimate"], "selection.csv: column cost")],
                         ids=["risk_table_threads_1", "risk_table_threads_2", "estimate"])
def test_an_overflow_prints_one_line(tmp_path, argv, named):
    # numpy's floating-point warnings, with their source lines, once came
    # before the line meant for the user; a fresh interpreter shows what
    # a user sees, outside the suite's warning filters
    cfg = write_cfg(tmp_path, "noise.rho1=1e300\nnoise.rho2=1e300\nrisk.n_values=20\nrisk.p=101\n"
                              "risk.replications=3\nestimate.n=20\n")
    done = fresh_cli(*argv, "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert (done.returncode, done.stderr) == (1, f"driftsel: {named} holds a non-finite number\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, lines", [(["risk-table", "--threads", "1"], 1), (["risk-table", "--threads", "2"], 1),
                                         (["estimate"], 1), (["figures"], 1), (["simulate"], 0),
                                         (["renewal-density"], 0)],
                         ids=["risk_table_threads_1", "risk_table_threads_2", "estimate", "figures", "simulate",
                              "renewal_density"])
def test_a_warning_prints_one_line(tmp_path, argv, lines):
    # a delta outside (0, 1/6] once printed Python's warning, with its
    # source line, once per process: the plan warns once per n, in the
    # parent, and main prints each distinct message once as one line
    cfg = write_cfg(tmp_path, "estimator.delta=0.5\nrisk.n_values=20,40\nrisk.p=101\nrisk.replications=60\n"
                              "estimator.k_star=2\nestimate.n=20\nnoise.interarrival=gamma(3, 0.3333333333333333)\n"
                              "renewal.h=0.004\n")
    done = fresh_cli(*argv, "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert done.returncode == 0
    assert len(done.stderr.splitlines()) == lines
    assert all(line.startswith("driftsel: warning: delta=0.5 outside (0, 1/6]")
               for line in done.stderr.splitlines())


@pytest.mark.parametrize("subcommand", ["risk-table", "figures"])
def test_a_failed_run_prints_its_warnings_first(tmp_path, subcommand):
    # the plan of n = 100 warns at delta = 0.5, and then the family of
    # n = 2 fails its weight-sum check: the warning once showed nowhere
    cfg = write_cfg(tmp_path, "estimator.delta=0.5\nrisk.n_values=100,2\nrisk.p=11\nestimator.k_star=5\n"
                              "estimator.eps=0.3\n")
    done = fresh_cli(subcommand, "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert done.returncode == 2
    assert done.stderr.splitlines() == [
        "driftsel: warning: delta=0.5 outside (0, 1/6]: the oracle inequality is not guaranteed",
        "driftsel: config error: all candidates shrink below total weight 1; grid too small",
    ]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("subcommand", ["risk-table", "estimate", "simulate"])
def test_main_refuses_a_frequency_above_the_limit(tmp_path, capsys, subcommand):
    # a run holds about 164 bytes per unit of p: p = 10^9 was killed for
    # want of memory instead of exiting; one above the limit is refused
    # before anything of its size is allocated
    p = driftsel.risk._MAX_P + 1
    cfg = write_cfg(tmp_path, f"risk.n_values=20\nrisk.p={p}\nrisk.replications=3\nestimate.n=20\n")
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    err = capsys.readouterr().err
    assert f"config error: p={p} for n=20 exceeds the limit of {p - 1} samples per period" in err
    assert not out.exists()
    with pytest.raises(ValueError, match="exceeds the limit"):
        resolve_frequency(RunConfig(p=p), 20)
    assert resolve_frequency(RunConfig(p=p - 1), 20) == p - 1


def test_simulate_refuses_a_path_above_the_cell_limit(tmp_path, capsys, monkeypatch):
    # estimate.n=100 at the largest p passes every frequency rule, and its
    # path would hold 4.2e8 cells, tens of GiB: refused before any draw
    cfg = write_cfg(tmp_path, f"estimate.n=100\nrisk.p={driftsel.risk._MAX_P}\n")
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    err = capsys.readouterr().err
    assert f"config error: simulate draws n*p = {100 * driftsel.risk._MAX_P} cells" in err
    assert f"above the limit of {driftsel.cli._MAX_PATH_CELLS}" in err
    assert not out.exists()
    # the limit itself is allowed
    cfg = write_cfg(tmp_path, "estimate.n=20\nrisk.p=101\n")
    for limit, code in ((20 * 101, 0), (20 * 101 - 1, 2)):
        monkeypatch.setattr(driftsel.cli, "_MAX_PATH_CELLS", limit)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / f"sim{limit}")]) == code
        assert (tmp_path / f"sim{limit}").exists() == (code == 0)


def test_cli_import_loads_no_scipy():
    # scipy.special alone costs about half of start-up and only the renewal
    # solve needs it; numpy.random and numpy.fft load lazily in numpy 2, so
    # the modules that use them must load them up front
    src = str(Path(driftsel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, driftsel.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
            "'numpy.random' in sys.modules, 'numpy.fft' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[] True True"


def test_risk_table_imports_no_module(tmp_path):
    # a module that loads on first use costs every fresh process its
    # import time and memory: np.unique, for one, loads numpy.ma
    src = str(Path(driftsel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cfg = write_cfg(tmp_path, "risk.n_values=10,100\nrisk.p=101\nrisk.replications=60\n")
    code = f"""
import sys
from driftsel.cli import build_parser, main

build_parser()
before = set(sys.modules)
assert main(["risk-table", "--threads", "1", "--config", {str(cfg)!r}, "--out", {str(tmp_path / "out")!r}]) == 0
print(sorted(set(sys.modules) - before), 'numpy.ma' in sys.modules)
"""
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[] False"


def test_cli_import_loads_no_process_pool(tmp_path):
    # the risk engine forks its own workers: the pool modules cost start-up
    # time and memory in every command
    src = str(Path(driftsel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cfg = write_cfg(tmp_path, "risk.n_values=10\nrisk.p=101\nrisk.replications=100\nestimator.k_star=2\n"
                              "estimator.eps=0.5\n")
    code = f"""
import sys
from driftsel.cli import main

def pools():
    return sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing'))

print(pools())
assert main(["risk-table", "--threads", "2", "--config", {str(cfg)!r}, "--out", {str(tmp_path / "out")!r}]) == 0
print(pools())
"""
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:2] == ["[]", "[]"]


@pytest.mark.parametrize(
    "where, failure, message",
    [
        ("!=", "raise ValueError('chunk failed')", r"driftsel: chunk failed\n"),
        ("!=", "os.kill(os.getpid(), signal.SIGKILL)",
         r"driftsel: risk worker process \d+ stopped without sending its results\n"),
        ("==", "raise ValueError('chunk failed')", r"driftsel: chunk failed\n"),
    ],
    ids=["worker-raises", "worker-dies", "parent-raises"],
)
def test_a_failed_chunk_fails_the_run_and_leaves_no_process(tmp_path, where, failure, message):
    # _run_chunk is replaced before the fork, so the workers inherit it; a
    # worker's exception or death fails the run as one at --threads 1
    # would, and every worker is reaped, whichever process failed
    src = str(Path(driftsel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cfg = write_cfg(tmp_path, "risk.n_values=10,20\nrisk.p=101\nrisk.replications=200\nestimator.k_star=2\n"
                              "estimator.eps=0.5\n")
    out = tmp_path / "out"
    code = f"""
import os, signal
import driftsel.risk
from driftsel.cli import main

parent, real_chunk = os.getpid(), driftsel.risk._run_chunk

def chunk(payload):
    if os.getpid() {where} parent:
        {failure}
    return real_chunk(payload)

driftsel.risk._run_chunk = chunk
print(main(["risk-table", "--threads", "3", "--config", {str(cfg)!r}, "--out", {str(out)!r}]))
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
"""
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.stdout.split("\n")[:2] == ["1", "no child left"], done.stderr
    assert re.fullmatch(message, done.stderr)
    assert not out.exists()


def test_only_renewal_density_loads_modules_after_import(tmp_path):
    # a numpy or scipy module loaded inside a command lands in its timed run
    src = str(Path(driftsel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cfg = write_cfg(
        tmp_path,
        "risk.n_values=10\nrisk.p=101\nrisk.replications=20\nestimate.n=10\n"
        "estimator.k_star=2\nestimator.eps=0.5\n"
        "noise.interarrival=exponential(1)\nrenewal.h=0.02\nrenewal.horizon=20.0\n",
    )
    code = f"""
import sys
from driftsel.cli import main

def loaded():
    return {{m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')}}

before = loaded()
for argv in (["risk-table", "--threads", "1"], ["risk-table", "--threads", "2"],
             ["estimate"], ["figures"], ["simulate"]):
    assert main([*argv, "--config", {str(cfg)!r}, "--out", {str(tmp_path / "out")!r}]) == 0
print(sorted(loaded() - before))
assert main(["renewal-density", "--config", {str(cfg)!r}, "--out", {str(tmp_path / "ren")!r}]) == 0
print("scipy.special" in loaded() - before)
"""
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:2] == ["[]", "True"]
    assert (tmp_path / "ren" / "renewal.csv").exists()


def test_module_entry_point_runs_the_subcommand(tmp_path):
    # `python -m driftsel.cli` must run the command and pass on its exit code
    src = str(Path(driftsel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cfg = write_cfg(tmp_path, "estimate.n=10\nrisk.p=101\nestimator.k_star=2\n")
    out = tmp_path / "est"
    done = subprocess.run([sys.executable, "-m", "driftsel.cli", "estimate", "--config", str(cfg),
                           "--out", str(out)], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert {"estimate.csv", "selection.csv", "manifest.txt"} <= {f.name for f in out.iterdir()}
    bad = write_cfg(tmp_path, "volume=11\n", "bad.cfg")
    done = subprocess.run([sys.executable, "-m", "driftsel.cli", "estimate", "--config", str(bad),
                           "--out", str(tmp_path / "bad")], env=env, capture_output=True, text=True)
    assert done.returncode == 2 and "config error" in done.stderr


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("subcommand, key", [("risk-table", "risk.n_values"), ("estimate", "estimate.n")])
def test_main_rejects_too_few_periods(tmp_path, capsys, subcommand, key, n):
    # a weight family needs n >= 2, a config error before any output for
    # risk.n_values and, under estimate, for estimate.n
    cfg = write_cfg(tmp_path, f"{key}={n}\nrisk.p=101\nrisk.replications=2\n")
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"n={n}" in err and "Traceback" not in err
    assert not out.exists()


GATE_BASE = {"risk.n_values": "20", "risk.p": "101", "risk.replications": "2", "estimate.n": "10"}


@pytest.mark.parametrize("subcommand", ["risk-table", "simulate"])
@pytest.mark.parametrize(
    "key, value, named",
    [
        ("risk.n_values", "20,1", "n=1"),
        ("risk.p", "2", "p >= 3"),
        ("estimator.eps", "1.5", "eps must lie in"),
        ("estimator.k_star0", "-200", "k_star must be at least 1"),
        ("estimator.varsigma_star", "1000", "upsilon must exceed 1"),
        ("estimate.n", "-1", "n=-1"),
        ("estimate.n", "0", "n=0"),
        ("estimator.eps", "1e-200", "scale count"),
        ("estimator.eps", "1e-160", "scale count"),
        ("estimator.varsigma_star", "1e-307", "be finite, got inf"),
        ("estimator.varsigma_star", "1.5e-307", "widest bandwidth overflows"),
    ],
)
def test_gate_rejects_family_and_frequency_rules(tmp_path, capsys, subcommand, key, value, named):
    # every n in risk.n_values must pass the family and frequency rules
    # before the first n is computed or the output directory exists
    settings = {**GATE_BASE, key: value}
    cfg = write_cfg(tmp_path, "".join(f"{k}={v}\n" for k, v in settings.items()))
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and named in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["risk-table", "estimate"])
@pytest.mark.parametrize(
    "k_star, eps, members",
    [(2, "1e-4", 200000000), (1, "0.0031622618488986627", 100001), (101, "0.03", 112211)],
)
def test_gate_bounds_the_family_size(tmp_path, capsys, subcommand, k_star, eps, members):
    # a family of k_star * 1/eps^2 members above 100000 is refused before
    # it is built: 2 * 10^8 members would take minutes and gigabytes
    settings = {**GATE_BASE, "estimator.k_star": k_star, "estimator.eps": eps}
    cfg = write_cfg(tmp_path, "".join(f"{k}={v}\n" for k, v in settings.items()))
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"has {members} members" in err and "Traceback" not in err
    assert not out.exists()


def test_estimate_gates_the_family_at_estimate_n(tmp_path, capsys):
    # 1/ln 2 > 1 leaves no eps for a family at n = 2; only estimate fits
    # one there, and refuses it as it builds it, so simulate still runs
    cfg = write_cfg(tmp_path, "estimate.n=2\nrisk.p=101\n")
    out = tmp_path / "out"
    assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("driftsel: config error: eps must lie in (0, 1)") and "n=2" in err
    assert not out.exists()
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "path.csv").exists()


def test_gate_admits_a_family_at_the_size_limit():
    config = RunConfig(n_values=(20,), p=101, k_star=1, eps=0.003162277660168379)
    assert family_knobs(20, config.eps, config.k_star, 100, 1.0)[2] == 100000
    validate_config(config)
    # the family itself holds the limit, for callers that skip the gate
    with pytest.raises(ValueError, match="has 100001 members"):
        build_weight_family(20, 101, eps=0.0031622618488986627, k_star=1)


def test_risk_table_refuses_a_family_beyond_the_scoring_budget(tmp_path, capsys):
    # the member count admits 2500 members, but a risk chunk at n = 10^6
    # would score 50 x 2500 x 312 values at once: the risk engine builds
    # the family and refuses it; estimate scores one row and runs
    settings = {**GATE_BASE, "risk.n_values": "1000000", "risk.p": "1001", "risk.replications": "50",
                "estimate.n": "1000000", "estimator.k_star": "1", "estimator.eps": "0.02"}
    cfg = write_cfg(tmp_path, "".join(f"{k}={v}\n" for k, v in settings.items()))
    out = tmp_path / "out"
    assert main(["risk-table", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("driftsel: config error: scoring n=1000000")
    assert "D=2500" in err and "W=312" in err and "estimator.eps" in err
    assert "Traceback" not in err and not out.exists()
    assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 0


@pytest.mark.parametrize(
    "settings, named",
    [
        # upsilon = 2: the one flat row sums to 0 and every taper below 1
        ({"risk.n_values": "2", "estimator.eps": "0.5"}, "all candidates shrink below total weight 1"),
        # 99299 distinct profiles of width 15: 50 x 99299 x 15 values
        ({"estimator.k_star": "1", "estimator.eps": "0.003162277660168379", "risk.replications": "10000"},
         "scoring n=20 needs 50 replications x D=99299 profiles x W=15"),
    ],
)
def test_risk_table_gate_builds_every_family(tmp_path, capsys, settings, named):
    # rules that need the built family are config errors of risk-table
    # too, found as the engine plans its run, before any chunk or output
    cfg = write_cfg(tmp_path, "".join(f"{k}={v}\n" for k, v in {**GATE_BASE, **settings}.items()))
    out = tmp_path / "out"
    assert main(["risk-table", "--config", str(cfg), "--out", str(out)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("driftsel: config error: " + named)
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["risk-table", "simulate"])
@pytest.mark.parametrize(
    "settings, named",
    [
        # both replications in one block at p = 101, each drawing 2e10 gaps
        ({"noise.interarrival": "exponential(1e9)"}, "n=20: 2 replications x 20000848544 gaps"),
        # one row a block at p = 100001, but estimate.n draws 10^8 gaps
        ({"noise.interarrival": "exponential(1e5)", "risk.p": "100001", "estimate.n": "1000"},
         "n=1000: 1 replications x 100060016 gaps"),
        # n / mean overflows, or the mean underflows to 0
        ({"noise.interarrival": "exponential(1e308)"}, "n=20: 2 replications x inf gaps"),
        ({"noise.interarrival": "gamma(1e-200,1e-200)"}, "n=20: 2 replications x inf gaps"),
    ],
)
def test_gate_bounds_the_renewal_gap_draw(tmp_path, capsys, subcommand, settings, named):
    # a block of replications draws its renewal gaps as one array, about
    # n / mean interarrival time a row; one beyond 2^24 values is refused
    # before any draw
    cfg = write_cfg(tmp_path, "".join(f"{k}={v}\n" for k, v in {**GATE_BASE, **settings}.items()))
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("driftsel: config error: renewal epochs at ") and named in line
    assert "16777216" in line and "noise.interarrival" in line
    assert not out.exists()


def test_gate_admits_a_renewal_gap_draw_at_the_limit():
    # 8 replications a block at p = 1001 and n = 10^6 draw 8 x 336813 gaps
    validate_config(RunConfig(n_values=(1000000,), p=1001, replications=50, estimate_n=1000000))
    # 16 replications a block at p = 512, each drawing 2^20 gaps at this n
    n = 1042435
    assert renewal_chunk(InterarrivalLaw.exponential(1.0), n) == 1 << 20
    validate_config(RunConfig(n_values=(n,), p=512, replications=50, interarrival="exponential(1)"))
    with pytest.raises(ConfigError, match="renewal epochs"):
        validate_config(RunConfig(n_values=(n + 1,), p=512, replications=50, interarrival="exponential(1)"))


def test_gate_builds_no_family(monkeypatch):
    # the gate runs before every command, inside its start-up time, so it
    # checks the family rules without paying for a family build
    def refuse(*args, **kwargs):
        raise AssertionError("validate_config built a weight family")

    monkeypatch.setattr("driftsel.estimator.build_weight_family", refuse)
    monkeypatch.setattr("driftsel.risk.build_weight_family", refuse)
    validate_config(RunConfig())
    validate_config(RunConfig(**PRESETS["desk-scale"]))
    validate_config(RunConfig(n_values=(20, 100), p=0, strict_h5=True))


def test_risk_table_builds_each_family_once(tmp_path, monkeypatch):
    # the engine checks each family where it builds it, so no other build
    # precedes the run only to read the family's shape
    built, build = [], driftsel.risk.build_weight_family

    def count(*args, **kwargs):
        built.append(args[0])
        return build(*args, **kwargs)

    monkeypatch.setattr("driftsel.risk.build_weight_family", count)
    cfg = write_cfg(tmp_path, "risk.n_values=20,40\nrisk.p=101\nrisk.replications=2\n"
                              "estimator.k_star=2\nestimator.eps=0.5\n")
    assert main(["risk-table", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert built == [20, 40]


def fresh_cli(*argv):
    """`driftsel` run with `argv` in a fresh interpreter, outside the
    suite's warning filters, as a user runs it."""
    src = str(Path(driftsel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "driftsel.cli", *argv], env=env, capture_output=True, text=True)


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_simulate_noiseless_unit_drift(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "signal.kind=trig\nsignal.coefficients=1.0\n"
        "noise.rho1=0.0\nnoise.rho2=0.0\n"
        "estimate.n=2\nrisk.p=9\n",
    )
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    digest, header, rows = read_csv(out / "path.csv")
    assert header == ["j", "t", "y"]
    assert len(rows) == 19
    y = np.array([float(r[2]) for r in rows])
    assert np.allclose(y, np.arange(19) / 9.0, atol=1e-12)
    manifest = (out / "manifest.txt").read_text()
    assert f"manifest_digest={digest}" in manifest
    assert "output=path.csv" in manifest


def test_simulate_streams_its_table(tmp_path):
    # main formats and writes a block of rows at a time: building every
    # line, and then one string of them, took 3.4 times the sampler's peak
    cfg = write_cfg(tmp_path, "estimate.n=20\nrisk.p=5001\n")
    tracemalloc.start()
    try:
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        config = RunConfig(estimate_n=20, p=5001)
        start = tracemalloc.get_traced_memory()[0]
        sample_observations(config.signal, config.noise, n=20, p=5001, keys=stream_keys(0, 0, 1)[0])
        sampler = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert len(read_csv(tmp_path / "sim" / "path.csv")[2]) == 20 * 5001 + 1
    assert peak < 2.5 * sampler


def test_estimate_outputs(tmp_path):
    cfg = write_cfg(tmp_path, "estimate.n=10\nrisk.p=101\nestimator.k_star=3\nestimator.eps=0.3\n")
    out = tmp_path / "est"
    assert main(["estimate", "--config", str(cfg), "--seed", "3", "--out", str(out)]) == 0
    _, header, rows = read_csv(out / "estimate.csv")
    assert header == ["t", "truth", "estimate"]
    assert len(rows) == 101
    _, header, sel = read_csv(out / "selection.csv")
    assert header == ["index", "beta", "scale", "cost", "selected"]
    chosen = [row for row in sel if row[4] == "1"]
    assert len(chosen) == 1
    costs = np.array([float(row[3]) for row in sel])
    assert float(chosen[0][3]) == costs.min()


def test_estimate_is_the_engine_replication(tmp_path):
    # estimate fits stream 0 through the risk engine's own sampler
    cfg = write_cfg(tmp_path, "estimate.n=10\nrisk.p=101\nestimator.k_star=3\nestimator.eps=0.3\n")
    out = tmp_path / "est"
    assert main(["estimate", "--config", str(cfg), "--seed", "3", "--out", str(out)]) == 0
    config = RunConfig(seed=3, p=101, k_star=3, eps=0.3)
    plan = resolve_plan(config, 10)
    [est] = replication_estimates(plan, stream_keys(3, 0, 1))
    result = select_model(est, plan.family, plan.delta)
    _, _, rows = read_csv(out / "estimate.csv")
    columns = np.array(rows, dtype=float).T
    assert np.array_equal(columns[1], grid_values(config.signal, plan.p))
    assert np.array_equal(columns[2], result.grid_values())
    _, _, sel = read_csv(out / "selection.csv")
    assert np.array_equal(np.array([float(row[3]) for row in sel]), result.costs)


def test_estimate_memory_does_not_grow_with_n(tmp_path):
    # one n*p path at n=1000, p=10001 alone is 80 MB
    cfg = write_cfg(tmp_path, "estimate.n=1000\nrisk.p=10001\nestimator.k_star=5\n")
    tracemalloc.start()
    try:
        assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "est")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@pytest.mark.parametrize("n, p", [(20, 101), (100, 1001)])
def test_fit_matches_full_path_fit_in_law(n, p):
    # the folded sampler's fits have the discrete error of full-path fits
    config = RunConfig(seed=71, p=p)
    plan = resolve_plan(config, n)
    truth = grid_values(config.signal, p)
    folded, full = np.empty(400), np.empty(400)
    for r in range(400):
        result = _fit_one_path(plan, stream=r)
        folded[r] = np.sum((result.grid_values() - truth) ** 2) / p
        obs = sample_observations(config.signal, config.noise, n, p, stream_keys(71, r, r + 1)[0])
        result = select_model(estimate_coefficients(obs), plan.family, plan.delta)
        full[r] = np.sum((result.grid_values() - truth) ** 2) / p
    se = math.hypot(folded.std(ddof=1), full.std(ddof=1)) / math.sqrt(400)
    assert abs(folded.mean() - full.mean()) <= 5.0 * se


def test_risk_table_output(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "risk.n_values=10\nrisk.p=101\nrisk.replications=20\n"
        "estimator.k_star=2\nestimator.eps=0.5\n",
    )
    out = tmp_path / "risk"
    assert main(["risk-table", "--config", str(cfg), "--out", str(out)]) == 0
    _, header, rows = read_csv(out / "risk.csv")
    assert header == ["n", "p", "N", "R_bar", "R_bar_se", "R_rel", "oracle", "seconds"]
    assert len(rows) == 1
    assert rows[0][:3] == ["10", "101", "20"]
    assert float(rows[0][3]) > 0.0


def test_risk_table_reruns_match_except_wall_clock(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "risk.n_values=10\nrisk.p=101\nrisk.replications=20\n"
        "estimator.k_star=2\nestimator.eps=0.5\n",
    )
    outs = []
    for name, threads in (("a", None), ("b", None), ("c", "2")):
        argv = ["risk-table", "--config", str(cfg), "--out", str(tmp_path / name)]
        if threads:
            argv += ["--threads", threads]
        assert main(argv) == 0
        outs.append(read_csv(tmp_path / name / "risk.csv"))
    base = masked_rows(outs[0][2], drop_col=7)
    assert outs[0][0] == outs[1][0] == outs[2][0]         # same digest, any threads
    assert masked_rows(outs[1][2], drop_col=7) == base
    assert masked_rows(outs[2][2], drop_col=7) == base    # thread count irrelevant


def test_renewal_density_output(tmp_path):
    cfg = write_cfg(tmp_path, "noise.interarrival=exponential(1)\nrenewal.h=0.005\nrenewal.horizon=30.0\n")
    out = tmp_path / "ren"
    assert main(["renewal-density", "--config", str(cfg), "--out", str(out)]) == 0
    _, header, rows = read_csv(out / "renewal.csv")
    assert header == ["x", "rho", "upsilon"]
    assert len(rows) == 6001
    rho = np.array([float(r[1]) for r in rows])
    assert np.abs(rho - 1.0).max() < 1e-6


def test_renewal_density_rejects_divergent_solve(tmp_path, capsys):
    # gamma shape 0.3 has a density unbounded at 0, so the march blows up
    cfg = write_cfg(tmp_path, "noise.interarrival=gamma(0.3,10)\nrenewal.h=0.05\n")
    out = tmp_path / "ren"
    assert main(["renewal-density", "--config", str(cfg), "--out", str(out)]) == 1
    assert "diverged" in capsys.readouterr().err
    assert not out.exists()                 # nothing is written until every table is computed


@pytest.mark.parametrize(
    "setting, message",
    [("renewal.h=1.0", "step 1.0 too coarse for mean spacing 3.0"),
     ("renewal.horizon=10.0", "horizon must cover at least 20 mean spacings")],
)
def test_renewal_density_grid_rules_are_config_errors(tmp_path, capsys, setting, message):
    # the step and horizon rules read the config alone
    cfg = write_cfg(tmp_path, setting + "\n")
    out = tmp_path / "ren"
    assert main(["renewal-density", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"driftsel: config error: {message}\n"
    assert not out.exists()


def test_renewal_density_refuses_a_grid_beyond_the_step_limit(tmp_path, capsys, monkeypatch):
    # renewal.h = 1e-5 makes 1.2e7 steps of an O(m^2) march, hours of
    # work: refused before the solve starts, with no output
    def solve(*args, **kwargs):
        raise AssertionError("the solve started")

    monkeypatch.setattr("driftsel.cli.solve_renewal_density", solve)
    cfg = write_cfg(tmp_path, "renewal.h=1e-5\n")
    out = tmp_path / "ren"
    assert main(["renewal-density", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("driftsel: config error: step 1e-05 and horizon 120.0 make 1.2e+07 "
                                       "grid steps, above the limit of 262144\n")
    assert not out.exists()


def test_risk_table_ignores_the_renewal_grid_rules(tmp_path):
    # only renewal-density solves on the grid: a law too fine for the
    # default step still draws its replications
    cfg = write_cfg(tmp_path, "noise.interarrival=exponential(100)\nrisk.n_values=20\nrisk.p=101\n"
                              "risk.replications=4\nestimator.k_star=2\nestimator.eps=0.5\n")
    out = tmp_path / "risk"
    assert main(["risk-table", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(read_csv(out / "risk.csv")[2]) == 1


def test_renewal_density_warns_when_not_converged(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path, "noise.interarrival=chi_squared(3)\nrenewal.h=0.06\nrenewal.horizon=60\n"
    )
    out = tmp_path / "ren"
    assert main(["renewal-density", "--config", str(cfg), "--out", str(out)]) == 0
    assert "did not converge" in capsys.readouterr().err
    assert len(read_csv(out / "renewal.csv")[2]) == 1001


def test_figures_output(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "risk.n_values=5,8\nrisk.p=101\nestimator.k_star=2\nestimator.eps=0.5\n",
    )
    out = tmp_path / "figs"
    assert main(["figures", "--config", str(cfg), "--out", str(out)]) == 0
    for n in (5, 8):
        _, header, rows = read_csv(out / f"figure_n{n}.csv")
        assert header == ["t", "truth", "estimate"]
        assert len(rows) == 101
    manifest = (out / "manifest.txt").read_text()
    assert "output=figure_n5.csv" in manifest and "output=figure_n8.csv" in manifest


def test_figures_late_family_failure_writes_nothing(tmp_path, capsys):
    # n = 2 passes the config gate but its family fails the weight-sum
    # check, a config error found before n = 100 is fitted: no figure of
    # n = 100 is left behind
    cfg = write_cfg(tmp_path, "risk.n_values=100,2\nrisk.p=11\nestimator.k_star=5\nestimator.eps=0.3\n")
    out = tmp_path / "figs"
    assert main(["figures", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("driftsel: config error: ") and "below total weight 1" in err
    assert "Traceback" not in err and not out.exists()
