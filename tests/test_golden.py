"""Golden pin: SHA-256 digests of the CSVs and manifests of one tiny run.

The config keeps the default k_star, so the weight family holds many
members that share a profile, selection costs tie, and the earliest
member must win.  risk.csv is pinned with its wall-clock `seconds`
column masked, for one worker and for two.

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
        "risk.csv": "746ed51f367a1615f8b7dd3aeb6d65bef52b3b007be6a1f58edfb8bafcc2362d",
        "manifest.txt": "eb07a873588d3490f09d834142eb6876001f6ec28d9f40254ecbd3df2dba898a",
    },
    "estimate": {
        "estimate.csv": "d03c255075d22591672bb9b5695a07b3b2ef49e80a137c45a74d9daa823a3391",
        "selection.csv": "0a500b23f36d20193d80f5d9ad84be066b79307aad2f4788125e606e5d2ba3e1",
        "manifest.txt": "9a4f17a7d31d8ebcdc81d18fbf0d6a2ac822b3f9aee9cc482934a72774d79f97",
    },
    "figures": {
        "figure_n20.csv": "f19bb59b6c28dc66cc96bef059d3af20cf96a35bc4b60acf43f3b06a97183f3c",
        "figure_n40.csv": "7f99ce95b2427ce3418b65bc9034822c8bd1bbbb7fdc178d3ebc499a40595781",
        "manifest.txt": "c7f014fcb76726c12f0fe936d55ddf86d7eb25ae6b064fac068d10f382f5d69f",
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
