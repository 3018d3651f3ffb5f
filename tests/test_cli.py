"""Tests for config parsing, manifests, and the CSV-emitting subcommands."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import driftsel

from driftsel.cli import (
    ConfigError,
    PRESETS,
    RunConfig,
    build_noise,
    build_signal,
    config_digest,
    emit_config,
    experiment_config,
    main,
    parse_config,
    validate_config,
    _parse_interarrival,
)
from driftsel.renewal import InterarrivalLaw


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
    tweaked = RunConfig(
        seed=99,
        rho1=1.0 / 3.0,
        interarrival="gamma(2.0,1.0)",
        signal_kind="trig",
        signal_coefficients=(0.1, -0.25, 1.0 / 7.0),
        n_values=(10, 20),
        delta="0.05",
        oracle=False,
    )
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
        parse_config("risk.oracle=yes\n")


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


def test_digest_tracks_content():
    assert config_digest(RunConfig()) != config_digest(RunConfig(seed=1))
    assert config_digest(RunConfig()) == config_digest(RunConfig())


def test_interarrival_parsing():
    assert _parse_interarrival("exponential(1)") == InterarrivalLaw.gamma(1.0, 1.0)
    assert _parse_interarrival("gamma(2, 1)").mean() == pytest.approx(2.0)
    assert _parse_interarrival("chi_squared(3)").mean() == pytest.approx(3.0)
    for bad in ("weibull(1)", "gamma(1)", "chi_squared(abc)", "exponential", "exponential(-1)",
                "exponential(inf)", "chi_squared(nan)", "gamma(inf,1)"):
        with pytest.raises(ConfigError):
            _parse_interarrival(bad)


def test_signal_building():
    assert build_signal(RunConfig()).kind == "benchmark"
    trig = build_signal(RunConfig(signal_kind="trig", signal_coefficients=(1.0, 0.5)))
    assert trig.kind == "trig_polynomial"
    with pytest.raises(ConfigError):
        build_signal(RunConfig(signal_kind="trig"))
    with pytest.raises(ConfigError):
        build_signal(RunConfig(signal_kind="spline"))


def test_noise_building():
    plain = build_noise(RunConfig())
    assert plain.jumps is None
    jumpy = build_noise(RunConfig(rho_check=0.5, jump_intensity=2.0, jump_law="two_point"))
    assert jumpy.jumps.intensity == 2.0
    with pytest.raises(ConfigError):
        build_noise(RunConfig(rho_check=0.5))           # jump part without a law


def test_experiment_materialization():
    exp = experiment_config(RunConfig())
    assert exp.p == 100001
    assert exp.k_star is None and exp.eps is None and exp.delta is None
    exp = experiment_config(RunConfig(p=0, k_star=5, eps=0.3, delta="0.05"))
    assert exp.p is None
    assert exp.k_star == 5
    assert exp.delta == 0.05
    exp = experiment_config(RunConfig(delta="efficient"))
    assert exp.delta_variant == "efficient"
    with pytest.raises(ConfigError):
        experiment_config(RunConfig(delta="fast"))


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


def test_cli_import_leaves_out_scipy_stats():
    # the gamma law needs only scipy.special; scipy.stats alone costs
    # most of a second of start-up
    src = str(Path(driftsel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, driftsel.cli; "
            "print([m for m in sys.modules if m.startswith(('scipy.stats', 'scipy.integrate'))])")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("subcommand, key", [("risk-table", "risk.n_values"), ("estimate", "estimate.n")])
def test_main_rejects_too_few_periods(tmp_path, capsys, subcommand, key, n):
    cfg = write_cfg(tmp_path, f"{key}={n}\nrisk.p=101\nrisk.replications=2\n")
    assert main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"n={n}" in err and "Traceback" not in err


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
    assert not (out / "renewal.csv").exists()


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
