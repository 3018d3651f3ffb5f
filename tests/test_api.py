"""Rules on driftsel's own code: every public top-level function and
class has a production caller, and only `cli.main` writes files."""

import ast
from collections import defaultdict
from pathlib import Path

import driftsel

# estimate_coefficients is the README's library example and the full-path
# reference the folded sampler is tested against; proxy_variance and
# pinsker_constant wait for run telemetry that reports them
NO_CALLER_YET = {"estimate_coefficients", "proxy_variance", "pinsker_constant"}


def test_public_api_has_a_production_caller():
    # an API only tests call belongs in the tests; a name counts as used
    # when driftsel's own code loads it (an import alone does not count)
    defined, used = set(), set()
    for path in Path(driftsel.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined.update(node.name for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"))
        used.update(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))
    assert defined - used == NO_CALLER_YET


WRITES = {"write_text", "write_bytes", "mkdir", "open"}


def test_only_main_writes():
    # handlers return their tables and main writes the run after they
    # return, so a run that fails creates nothing; a write may sit in
    # cli.main or in a private helper that only main calls
    writers, callers = set(), defaultdict(set)
    for path in Path(driftsel.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            site = (path.stem, getattr(top, "name", "<module>"))
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "attr", getattr(node.func, "id", None))
                    callers[name].add(site)
                    if name in WRITES:
                        writers.add(site)
    main = {("cli", "main")}
    helpers = {site for site in writers if site[1].startswith("_") and callers[site[1]] == main}
    assert writers <= main | helpers
