"""Every exported name resolves, in the package and in each submodule, no
module reads another's private members, and every public name has a caller
that is not a test or an entry in UNREACHED."""

import ast
import importlib
import pathlib
import pkgutil
import types

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



# Each public name that no code under src/minweight/ or demos/ reaches, with
# the ROADMAP item that will use or delete it, or why the package keeps it.
# An entry leaves when its name is deleted or gains a caller.
UNREACHED = {
    "weights.iterated_coupling_batch": "item 13",
    "weights.quantile": "item 5",
    "patching.estimate_patchability": "item 6",
    "dual.talagrand_product_bound": "item 6",
    "dual.talagrand_threshold": "item 6",
    "bounds.split_cost": "item 6",
    "SpanningTreeFamily.min_outgoing_edge_count": "item 6",
    "SpanningTreeFamily.budget_forest": "item 4 (a perfbench trace target)",
    "MatchingFamily.assignment_ladder": "item 4 (a perfbench trace target)",
    "families.ExplicitFamily": "the paper's general family F at small sizes, "
                               "which the oracle and budget-search tests need",
}
EXPORTING = ("bounds", "dual", "families", "montecarlo", "patching", "rngs", "weights")
FAMILY_CLASSES = ("Family", "SpanningTreeFamily", "MatchingFamily", "ExplicitFamily")


def _public_names():
    """Each exported module's __all__ as {module: names}, and each public
    method of a family as {name: ["Class.name", ...]}."""
    exported = {m: set(importlib.import_module(f"minweight.{m}").__all__)
                for m in EXPORTING}
    methods = {}
    for cls in FAMILY_CLASSES:
        for name, value in vars(getattr(minweight.families, cls)).items():
            if not name.startswith("_") and isinstance(value, (property, staticmethod,
                                                                 types.FunctionType)):
                methods.setdefault(name, []).append(f"{cls}.{name}")
    return exported, methods


def _reads(tree, module, exported, methods):
    """The public names that the source `tree` of `module` (None for a demo)
    reads outside their own definitions, as "module.name" or "Class.name".

    An exported name is read bare where it is defined or imported from the
    package, or as an attribute of its module or of the package:
    `weights.quantile` is read, `np.quantile` is not.  A family method is
    read as any attribute of its name, since the family is not known."""
    owner = {name: mod for mod, names in exported.items() for name in names}
    bare = dict.fromkeys(exported.get(module, ()), module)  # name -> its module
    modules = {}  # local name -> a module's name, or None for the package
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((a.asname or a.name, None) for a in node.names
                           if a.name == "minweight")
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").partition(".")[0] == "minweight"):
            for alias in node.names:
                if alias.name in EXPORTING:
                    modules[alias.asname or alias.name] = alias.name
                elif alias.name in owner:
                    bare[alias.asname or alias.name] = owner[alias.name]
    # The definitions: the module's own exported names, and in families.py
    # the family classes' methods.
    definitions = {id(node) for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                   and node.name in exported.get(module, ())}
    if module == "families":
        definitions |= {id(item) for node in tree.body
                        if isinstance(node, ast.ClassDef) and node.name in FAMILY_CLASSES
                        for item in node.body if isinstance(item, ast.FunctionDef)}
    found = set()

    def visit(node, inside):
        if id(node) in definitions:
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in bare and node.id not in inside:
                found.add(f"{bare[node.id]}.{node.id}")
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            found.update(methods.get(node.attr, ()))
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                target = modules[node.value.id] or owner.get(node.attr)
                if node.attr in exported.get(target, ()):
                    found.add(f"{target}.{node.attr}")
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def test_every_public_name_has_a_caller_that_is_not_a_test():
    # ROADMAP item 19: a public name that only tests reach is either wanted
    # by an open item or deleted, and UNREACHED lists it until then.
    package = pathlib.Path(minweight.__file__).parent
    demos = pathlib.Path(__file__).resolve().parents[1] / "demos"
    exported, methods = _public_names()
    public = {f"{m}.{name}" for m, names in exported.items() for name in names}
    public |= {key for keys in methods.values() for key in keys}
    reached = set()
    for path in sorted(package.glob("*.py")) + sorted(demos.glob("*.py")):
        module = path.stem if path.parent == package else None
        reached |= _reads(ast.parse(path.read_text()), module, exported, methods)
    unreached = public - reached
    assert sorted(unreached - UNREACHED.keys()) == []  # a new name with no caller
    assert sorted(UNREACHED.keys() - unreached) == []  # an entry that gained one
