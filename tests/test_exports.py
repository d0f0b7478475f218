"""Every exported name resolves, in the package and in each submodule, and
no module reads another's private members."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import minweight

MODULES = ["minweight"] + sorted(
    f"minweight.{m.name}" for m in pkgutil.iter_modules(minweight.__path__)
)


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_package_exports_the_union_of_submodule_exports():
    # oracles (the brute-force checks) is imported by name, not exported.
    exporting = ["bounds", "dual", "families", "montecarlo", "patching", "rngs",
                 "weights"]
    union = {
        name
        for module in exporting
        for name in importlib.import_module(f"minweight.{module}").__all__
    }
    assert sorted(minweight.__all__) == sorted(union | {"__version__"})


def test_each_public_name_is_declared_once():
    declared = [
        name
        for module in ("bounds", "dual", "families", "montecarlo", "patching",
                       "rngs", "weights")
        for name in importlib.import_module(f"minweight.{module}").__all__
    ]
    assert sorted(declared) == sorted(set(declared))


def test_only_families_reads_private_members_of_other_objects():
    # families.py owns the family internals (its classes share them); every
    # other module reads a single-underscore attribute only on self or cls.
    found = []
    for path in sorted(pathlib.Path(minweight.__file__).parent.glob("*.py")):
        if path.name == "families.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and not node.attr.startswith("__")
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id in ("self", "cls"))):
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert found == []


def test_scipy_is_imported_only_inside_functions():
    # scipy takes most of the package's import time and no tree run calls
    # it, so each scipy import sits in the function or constructor that
    # needs it.
    def module_level(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        yield node
        for child in ast.iter_child_nodes(node):
            yield from module_level(child)

    found = []
    for path in sorted(pathlib.Path(minweight.__file__).parent.glob("*.py")):
        for node in module_level(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.partition(".")[0] == "scipy" for name in names):
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert found == []
