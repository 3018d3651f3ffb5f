"""Golden pin: SHA-256 digests of the CSVs and manifests of one tiny run.

The config keeps the default k_star, so the weight family holds many
members that share a profile, selection costs tie, and the earliest
member must win.  risk.csv is pinned with its wall-clock `seconds`
column masked, for one worker and for two.  Substream t of replication r
is numbered as in `driftsel.noise` (0 renewal gaps, 1 marks, 2 Brownian,
3 jumps):

- `risk-table`, `estimate` (estimate.csv, selection.csv) and `figures`
  fit through the risk engine's route: they pin substreams 0 and 1
  through each stream's terms folded onto one period, and substream 2
  as the first min(n, p - 1) normals, read as coefficients;
- `simulate` pins the full-path sampler: substreams 0 and 1, and
  substream 2 as one normal per cell of all n*p;
- a risk table with a jump part (two-point jumps, Brownian weight 1/2)
  adds substream 3, its jump counts drawn on the p cells of one folded
  period.

n = 20 takes the engine's projection route at p = 101, and every other
n here, the jump table's n = 20 included, its rfft route
(`test_risk.test_route_of_every_golden_and_benchmark_config`).

`renewal-density` is pinned on its own config, a gamma(3, 1/3) law on a
0.004 step (10 001 grid points).  The manifests hold the config and its
digest alone, so no stream moves them.

Recorded with Python 3.11, numpy 2.4.6 and scipy 1.17.1.  A change that
alters a reported digit must update these digests on purpose and say
why in CHANGES.md.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from driftsel.cli import _HANDLERS, main, parse_config

CONFIG = (
    "seed=2\n"
    "risk.n_values=20,40\n"
    "risk.p=101\n"
    "risk.replications=60\n"
    "estimate.n=40\n"
)
JUMPS = "noise.rho_check=0.5\nnoise.jump_intensity=2\nnoise.jump_law=two_point\n"

GOLDEN = {
    "risk-table": {
        "risk.csv": "3ecf6556c995531a0c43afd9baa930b61df6be6bd067c4719a9b0eeb8d1b05cb",
        "manifest.txt": "eb07a873588d3490f09d834142eb6876001f6ec28d9f40254ecbd3df2dba898a",
    },
    "estimate": {
        "estimate.csv": "b73b80bea18ea91999a9bdccdbafb9948f31473e1722c752ebc4a0f12c3fb9b4",
        "selection.csv": "0d803cc2b32d748b9654e0f92cbd07907876e3894bb97775c58592ba4cdef9d5",
        "manifest.txt": "9a4f17a7d31d8ebcdc81d18fbf0d6a2ac822b3f9aee9cc482934a72774d79f97",
    },
    "figures": {
        "figure_n20.csv": "e2a5dbf8a2f80fdba63390d2c13f08a53cd3623aab337d6db5857883e64af3df",
        "figure_n40.csv": "9084c33db5a974d3a36198c6a5e83737d356ab4e826fdf3b70c2c926ae43aeb0",
        "manifest.txt": "c7f014fcb76726c12f0fe936d55ddf86d7eb25ae6b064fac068d10f382f5d69f",
    },
    "simulate": {
        "path.csv": "a81dfcfa4661a219631b714dd7fa029896bbff621254d649773c7c6c231df03b",
        "manifest.txt": "f8fa3a1bcdd28cfdc2076b341e95fd839fb6321b3d17fad0af45b2eddf9bce59",
    },
}
GOLDEN_JUMPS = {
    "risk.csv": "488d8d957dc6a3078a3b6f1b8da3223b5102befd94376b21a7c20ffe39bd5311",
    "manifest.txt": "eed3e76c97a9ad19645b39bf38e766815a09566777e1f1ea3b68302ef9b28f87",
}
RENEWAL = "noise.interarrival=gamma(3, 0.3333333333333333)\nrenewal.h=0.004\n"
GOLDEN_RENEWAL = {
    "renewal.csv": "dfbd7c2f3bef4c5beb244dc820a64bb5a1a252ac81d77f4324dda6b226db2b2e",
    "manifest.txt": "772bf7848dcf7ce2a2789fd1838859178e35bb8932436d4929db9913822db899",
}


def _mask_seconds(text: str) -> str:
    lines = text.splitlines()
    rows = [line.rsplit(",", 1)[0] + ",*" for line in lines[2:]]
    return "\n".join(lines[:2] + rows) + "\n"


def _digests(tmp_path, config, names, subcommand, *flags):
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(config, encoding="utf-8")
    out = tmp_path / "-".join((subcommand, *flags))
    assert main([subcommand, "--config", str(cfg), "--out", str(out), *flags]) == 0
    digests = {}
    for name in names:
        text = (out / name).read_text(encoding="utf-8")
        if name == "risk.csv":
            text = _mask_seconds(text)
        digests[name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return digests


@pytest.mark.parametrize(
    "subcommand, flags",
    [
        ("risk-table", ("--threads", "1")),
        ("risk-table", ("--threads", "2")),
        ("estimate", ()),
        ("figures", ()),
        ("simulate", ()),
    ],
)
def test_outputs_match_golden_digests(tmp_path, subcommand, flags):
    assert _digests(tmp_path, CONFIG, GOLDEN[subcommand], subcommand, *flags) == GOLDEN[subcommand]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_jump_noise_risk_table_matches_golden_digests(tmp_path, threads):
    digests = _digests(tmp_path, CONFIG + JUMPS, GOLDEN_JUMPS, "risk-table", "--threads", threads)
    assert digests == GOLDEN_JUMPS


# each golden command, and risk-table at two worker counts, in one process
THREAD_RUNS = (
    ("risk-table", CONFIG, ("--threads", "1")),
    ("risk-table", CONFIG, ("--threads", "2")),
    ("risk-table", CONFIG + JUMPS, ()),
    ("estimate", CONFIG, ()),
    ("figures", CONFIG, ()),
    ("simulate", CONFIG, ()),
)


def _outputs(out):
    # every output file's bytes, risk.csv's wall-clock seconds masked
    return {path.name: _mask_seconds(path.read_text(encoding="utf-8")) if path.name == "risk.csv"
            else path.read_text(encoding="utf-8") for path in sorted(out.iterdir())}


def test_outputs_do_not_depend_on_the_thread_counts(tmp_path):
    # the golden commands write the same bytes under one OpenBLAS thread
    # and two, and risk-table under one worker and two. renewal-density is
    # left out: its march sums dot products of more than 10000 elements,
    # which OpenBLAS splits across threads, so a grid of more than 10000
    # points still depends on the thread count
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = []
    for i, (subcommand, config, flags) in enumerate(THREAD_RUNS):
        cfg = tmp_path / f"{i}.cfg"
        cfg.write_text(config, encoding="utf-8")
        runs.append([subcommand, "--config", str(cfg), *flags])
    code = ("import sys\nfrom driftsel.cli import main\n"
            f"for i, argv in enumerate({runs!r}):\n"
            "    assert main([*argv, '--out', f'{sys.argv[1]}/{i}']) == 0\n")
    outputs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code, str(tmp_path / threads)], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        outputs[threads] = [_outputs(tmp_path / threads / str(i)) for i in range(len(runs))]
    assert outputs["1"] == outputs["2"]
    assert outputs["1"][0] == outputs["1"][1]
    assert set(outputs["1"][3]) == {"estimate.csv", "selection.csv", "manifest.txt"}


def test_projected_full_scale_table_does_not_depend_on_the_thread_counts(tmp_path):
    # n = 1000 at the full scale's p = 100001 takes the projection route,
    # which calls no BLAS: its table has the same bytes under one
    # OpenBLAS thread and two
    src = str(Path(__file__).resolve().parents[1] / "src")
    cfg = tmp_path / "full.cfg"
    cfg.write_text("risk.n_values=1000\nrisk.replications=2\n", encoding="utf-8")
    tables = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / threads
        done = subprocess.run([sys.executable, "-m", "driftsel.cli", "risk-table", "--config", str(cfg),
                               "--out", str(out)], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        tables.append(_mask_seconds((out / "risk.csv").read_text(encoding="utf-8")))
    assert tables[0] == tables[1]
    assert tables[0].splitlines()[2].startswith("1000,100001,2,")


def test_renewal_density_matches_golden_digests(tmp_path):
    assert _digests(tmp_path, RENEWAL, GOLDEN_RENEWAL, "renewal-density") == GOLDEN_RENEWAL


@pytest.mark.parametrize("subcommand", sorted(_HANDLERS))
def test_handlers_write_nothing_and_name_their_tables_in_manifest_order(tmp_path, monkeypatch, subcommand):
    # a handler only computes: main formats and writes its tables, in the
    # order of its keys, from one column of numbers per header name
    monkeypatch.chdir(tmp_path)
    golden = GOLDEN_RENEWAL if subcommand == "renewal-density" else GOLDEN[subcommand]
    config = parse_config(RENEWAL if subcommand == "renewal-density" else CONFIG)
    tables = _HANDLERS[subcommand](config)
    for header, columns in tables.values():
        columns = [np.asarray(column) for column in columns]
        assert len(columns) == len(header)
        assert len({column.shape for column in columns}) == 1 and columns[0].ndim == 1
        assert all(column.dtype.kind in "if" for column in columns)
    assert list(tables) == [name for name in golden if name != "manifest.txt"]
    assert os.listdir(tmp_path) == []
