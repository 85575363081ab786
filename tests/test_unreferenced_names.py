"""The package's public names that no code in the package references.

Library code that only tests reach is kept on purpose or removed: a new
public function, class, method or property that nothing under `src/` uses
fails here until it is listed in UNREFERENCED with its reason.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "satagg"

# Public name -> why it stays although no package code references it.
UNREFERENCED = {
    "Arborescence.total_cost": "the cost the sandwich tests compare",
    "Arborescence.validate": "the tests' tree check; the benchmark tracer's only "
                             "call to it hooks routing.taeer, which is gone",
    "SnapshotGraph.dropped_edges": "read by perfbench/tracing.py",
    "hierfl.tree_aggregate": "kept for ROADMAP item 5",
}


def unreferenced_names(package=PACKAGE) -> set:
    """Public module-level functions and classes ("module.name") that no
    name, attribute or import in the package mentions, and public methods
    and properties of public classes ("Class.name") that no attribute
    access in the package reads."""
    functions, methods, names, attrs = {}, {}, set(), set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            functions[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        methods[f"{node.name}.{item.name}"] = item.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return ({key for key, name in functions.items() if name not in names | attrs}
            | {key for key, name in methods.items() if name not in attrs})


def test_unreferenced_public_names_are_pinned():
    assert unreferenced_names() == set(UNREFERENCED)


def test_scan_sees_methods_functions_and_classes(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Used:\n"
        "    def read(self): pass\n"
        "    def unread(self): pass\n"
        "    @property\n"
        "    def size(self): pass\n"
        "class Unused: pass\n"
        "def helper(): pass\n"
        "def _private(): pass\n")
    (tmp_path / "b.py").write_text(
        "from .a import Used\n"
        "from . import a\n"
        "x = Used().read() + a.helper()\n")
    assert unreferenced_names(tmp_path) == {"Used.unread", "Used.size", "a.Unused"}
