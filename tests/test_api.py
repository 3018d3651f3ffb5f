"""Every public top-level function and class has a production caller."""

import ast
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
