"""The package names the benchmark harness in ``perfbench/`` reaches for.

The harness is read, never imported or run: a span target that no longer
resolves raises its ``trace.missing_spans`` count, and a name its probes
import that the package stops exporting fails the probe.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# span targets that were already gone when the harness was last changed
KNOWN_MISSING = {
    "teamlqg.filters.measurement_update",
    "teamlqg.filters.step",
    "teamlqg.sim._paired_chunk_job",
    "teamlqg.oracle.build_joint_model",
}


def _span_targets():
    """``TARGETS`` of ``traced_cli.py``: span name -> [(module, attribute)]."""
    tree = ast.parse((PERFBENCH / "traced_cli.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["TARGETS"]):
            return ast.literal_eval(node.value)
    raise AssertionError("traced_cli.py defines no TARGETS")


def test_every_span_target_but_the_known_missing_resolves():
    missing = {f"{home}.{attr}" for targets in _span_targets().values()
               for home, attr in targets
               if getattr(importlib.import_module(home), attr, None) is None}
    assert missing <= KNOWN_MISSING


@pytest.mark.parametrize("probe", ["setup_probe.py", "workloads.py"])
def test_package_exports_every_name_a_probe_imports(probe):
    tree = ast.parse((PERFBENCH / probe).read_text())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "teamlqg"
                for alias in node.names]
    assert imported
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), \
            f"{probe} imports {name} from {module}"
