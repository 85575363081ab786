"""The package's names that no code in the package references.

Library code that only tests reach is kept on purpose or removed: a new
public function, class, method or property that nothing under `src/` uses
fails here until it is listed in UNREFERENCED with its reason. A private
module-level function that nothing under `src/` calls (one kept alive only
by a test's spy) and an import that its module never reads fail with no
exemption.
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
    name, attribute or import in the package mentions; public methods and
    properties of public classes ("Class.name") that no attribute access
    in the package reads; private module-level functions ("module._name")
    that no name or attribute in the package mentions; and names bound by
    an import that no name in their module reads ("module imports name")."""
    functions, methods, names, attrs, imports = {}, {}, set(), set(), set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) or (
                    isinstance(node, ast.ClassDef) and not node.name.startswith("_")):
                functions[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        methods[f"{node.name}.{item.name}"] = item.name
        read, bound = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
        names |= read
        imports |= {f"{path.stem} imports {name}" for name in bound - read}
    return ({key for key, name in functions.items() if name not in names | attrs}
            | {key for key, name in methods.items() if name not in attrs}
            | imports)


def test_unreferenced_public_names_are_pinned():
    assert unreferenced_names() == set(UNREFERENCED)


def test_scan_sees_methods_functions_and_classes(tmp_path):
    (tmp_path / "a.py").write_text(
        "import bisect\n"
        "import numpy as np\n"
        "class Used:\n"
        "    def read(self): pass\n"
        "    def unread(self): pass\n"
        "    @property\n"
        "    def size(self): pass\n"
        "class Unused: pass\n"
        "def helper(): return _called() + np.pi\n"
        "def _called(): pass\n"
        "def _private(): pass\n")
    (tmp_path / "b.py").write_text(
        "from .a import Used\n"
        "from . import a\n"
        "x = Used().read() + a.helper()\n")
    assert unreferenced_names(tmp_path) == {"Used.unread", "Used.size", "a.Unused",
                                            "a._private", "a imports bisect"}
