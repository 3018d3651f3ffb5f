"""Golden pin: SHA-256 digests of the CSVs and manifests of one tiny run.

The config keeps the default k_star, so the weight family holds many
members that share a profile, selection costs tie, and the earliest
member must win; the oracle is on.  risk.csv is pinned with its
wall-clock `seconds` column masked, for one worker and for two.

Recorded with Python 3.11, numpy 2.4.6 and scipy 1.17.1.  A change that
alters a reported digit must update these digests on purpose and say
why in CHANGES.md.
"""

import hashlib

import pytest

from driftsel.cli import main

CONFIG = (
    "seed=2\n"
    "risk.n_values=20,40\n"
    "risk.p=101\n"
    "risk.replications=60\n"
    "estimate.n=40\n"
)

GOLDEN = {
    "risk-table": {
        "risk.csv": "c24a1c41cdaee9b6fd680429ab14996aad0ef008449244b7fca7eec06a159baf",
        "manifest.txt": "7c29d8a0e14d3dff4e25a3e359bbbaee008f5af91c9a7ff5ca3f5a8d0537f155",
    },
    "estimate": {
        "estimate.csv": "a057d342639cb1a246d31241054d90d6d375570d75195ee024c29c38041d887e",
        "selection.csv": "507a6bcf606a2bd312458013158fc3d48278ce7c7d92e3d2c6a16064b0b294fc",
        "manifest.txt": "8a7d5f2389ca07862540dd13e1748f400b48375e0f8ca0f8a7e52daf915fd024",
    },
    "figures": {
        "figure_n20.csv": "7a13bc32f430cd56dbf9936566fb0fb87db6f022921c2a2fa845b6e5029e0e75",
        "figure_n40.csv": "a404e0497c3eeb7abecf5dc75e84f29f41b9b7ff49d0fe5ad19818611bd20a90",
        "manifest.txt": "e6f4f53c91de5db637a779cd0ea15efc88fd146fff0590537996faa48e41bc78",
    },
}


def _mask_seconds(text: str) -> str:
    lines = text.splitlines()
    rows = [line.rsplit(",", 1)[0] + ",*" for line in lines[2:]]
    return "\n".join(lines[:2] + rows) + "\n"


def _digests(tmp_path, subcommand, *flags):
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(CONFIG, encoding="utf-8")
    out = tmp_path / "-".join((subcommand, *flags))
    assert main([subcommand, "--config", str(cfg), "--out", str(out), *flags]) == 0
    digests = {}
    for name in GOLDEN[subcommand]:
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
    ],
)
def test_outputs_match_golden_digests(tmp_path, subcommand, flags):
    assert _digests(tmp_path, subcommand, *flags) == GOLDEN[subcommand]
