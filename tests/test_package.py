import ast
import sys
import types
from pathlib import Path

import qlincat

SRC = Path(qlincat.__file__).resolve().parent


def test_public_names_resolve_and_are_not_modules():
    assert len(set(qlincat.__all__)) == len(qlincat.__all__)
    for name in qlincat.__all__:
        assert not isinstance(getattr(qlincat, name), types.ModuleType), name


def test_no_assert_statements_in_package():
    # invariants must survive python -O, so they are raised, never asserted
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), path.name


def _non_stdlib_imports(src: Path) -> list[str]:
    """module: name for each absolute import in the package whose top-level
    module is not in the standard library."""
    out = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            out += [f"{path.stem}: {name}" for name in names
                    if name.partition(".")[0] not in sys.stdlib_module_names]
    return out


def test_package_imports_only_the_standard_library():
    assert _non_stdlib_imports(SRC) == []


def test_stdlib_check_fails_on_a_third_party_import(tmp_path):
    _copy_package(tmp_path)
    linalg = tmp_path / "linalg.py"
    linalg.write_text("import numpy\n" + linalg.read_text(encoding="utf-8"), encoding="utf-8")
    assert _non_stdlib_imports(tmp_path) == ["linalg: numpy"]


# Public names that no other package module uses, each kept for one reason.
LIBRARY_API = (
    # read by perfbench
    "dimension_oracle",
    # used in the README
    "even_space", "relation_set", "RewriteSystem", "pi_image",
    # state a claim of the paper: the exact graded dimensions and the PBW
    # verdict, the pairing and the dual object, composable homs
    "classical_dimension", "PBWVerdict", "Extraction", "koszul_pairing", "dual_object",
    "objects_equal", "composable_triple",
    # the type of every relation span, which the derivations return
    "RelationSet",
    # raised by the names above (koszul_pairing, spans_equal)
    "DegreeMismatch", "AlphabetMismatch",
    # library printing (``NCPoly``'s repr) and the reference for the CLI's
    # relation listings, which are written from the integer rows
    "format_poly",
)


def _names_without_callers(src: Path) -> list[str]:
    """The names in the package's ``__all__`` that no package module other
    than the defining one (and ``__init__``) imports or references."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.glob("*.py"))}
    public = next(
        ast.literal_eval(node.value)
        for node in trees.pop("__init__").body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "__all__"
    )
    defined, used = {}, {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = module
        refs = used[module] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.add(node.name)
    return [
        name for name in public
        if not any(name in refs for module, refs in used.items() if module != defined.get(name))
    ]


def test_every_public_name_has_a_caller_or_a_reason():
    unused = _names_without_callers(SRC)
    assert sorted(set(unused) - set(LIBRARY_API)) == []
    # the tuple holds no stale or redundant entry
    assert sorted(set(LIBRARY_API) - set(unused)) == []


def _copy_package(tmp_path: Path) -> None:
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")


def test_caller_check_fails_on_a_public_name_without_a_caller(tmp_path):
    _copy_package(tmp_path)
    with (tmp_path / "graded.py").open("a", encoding="utf-8") as f:
        f.write("\n\ndef orphan():\n    return None\n")
    init = tmp_path / "__init__.py"
    init.write_text(
        init.read_text(encoding="utf-8").replace('__all__ = [', '__all__ = [\n    "orphan",'),
        encoding="utf-8",
    )
    assert set(_names_without_callers(tmp_path)) - set(LIBRARY_API) == {"orphan"}


# Public methods and properties of the package's classes that no package
# code calls or reads, each kept for one reason.
LIBRARY_METHODS = (
    # read by perfbench
    "RelationSet.matrix",
    # value-type API: the determinant coboundary rescales determinants
    "NCPoly.scale",
)

_PROPERTIES = {"property", "cached_property"}


def _methods_without_callers(src: Path) -> list[str]:
    """Class.name for each public method that no package code calls, and
    each public property that no package code reads, matched by name: a
    method counts only as ``x.name(...)``, so a field or property of
    another class with the same name is not its caller."""
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.glob("*.py"))]
    members = {}
    called, read = set(), set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        prop = any(getattr(d, "id", None) in _PROPERTIES
                                   for d in item.decorator_list)
                        members[f"{node.name}.{item.name}"] = (item.name, prop)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                called.add(node.func.attr)
    return [
        qualified for qualified, (name, prop) in members.items()
        if name not in (read if prop else called)
    ]


def test_every_public_method_has_a_caller_or_a_reason():
    unused = _methods_without_callers(SRC)
    assert sorted(set(unused) - set(LIBRARY_METHODS)) == []
    assert sorted(set(LIBRARY_METHODS) - set(unused)) == []


def test_method_check_fails_on_an_orphan_method(tmp_path):
    _copy_package(tmp_path)
    # a method of a class whose name is read elsewhere, but never called,
    # and a property of another class that nothing reads
    graded = tmp_path / "graded.py"
    graded.write_text(
        graded.read_text(encoding="utf-8").replace(
            "    @property\n    def even_count(self)",
            "    def size(self) -> int:\n        return self.dim\n\n"
            "    @property\n    def even_count(self)",
        ) + "\n\nclass Orphan:\n    @property\n    def orphan(self):\n        return None\n",
        encoding="utf-8",
    )
    assert set(_methods_without_callers(tmp_path)) - set(LIBRARY_METHODS) == {
        "GradedSpace.size", "Orphan.orphan"
    }
