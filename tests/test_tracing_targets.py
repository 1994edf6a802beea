"""The benchmark tracer's wrapper targets exist in the package.

perfbench/tracing.py replaces the names listed in its ``WRAPS`` table with
timed wrappers and reports a missing one as an incorrect run. The table is
read with ``ast``, so nothing under perfbench/ is imported or written here.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def wrap_targets() -> list[tuple[str, str]]:
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPS" for t in node.targets
        ):
            # (module, attribute, ...): the first two fields are string literals
            return [tuple(ast.literal_eval(f) for f in e.elts[:2]) for e in node.value.elts]
    raise AssertionError(f"no WRAPS table in {TRACING}")


def test_every_wrapped_name_resolves():
    targets = wrap_targets()
    assert ("gbmtails.fitting", "fit_dpareto_mle") in targets
    missing = []
    for module_name, attr in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module_name}.{attr}")
    assert missing == []
