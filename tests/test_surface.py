"""The package's public surface holds only what something uses.

A public function or class of a ballavoid submodule must be exported in
``__all__``, referenced from another module of the package, or named by
a consumer outside ``src/``: a per_layer metric of BENCHMARK.json, the
output oracle of perfbench, or the acceptance gate.  Classes (the records
public functions return) and the CLI's handlers, which its parser binds,
may instead be referenced from their own module.  A helper nothing uses
fails here; so do the sampler wrappers once the benchmark drops their
metrics.

A module-level private function, class or constant must be loaded by
some module of the package (a name read, an attribute, or an import);
one that nothing loads is dead code and fails here too.
"""

import ast
import importlib
import inspect
import json
import pathlib
import pkgutil

import ballavoid

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = pathlib.Path(ballavoid.__file__).parent


def referenced_names(path):
    """Every name, attribute and imported name in the source of path."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def imported_from_package(path):
    """module.name for every `from ballavoid.module import name` in path."""
    return {
        f"{node.module.removeprefix('ballavoid.')}.{alias.name}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ballavoid.")
        for alias in node.names
    }


def allow_list():
    """module.name -> why a consumer outside src/ needs it."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    allowed = {".".join(m["name"].split(".")[:2]): "BENCHMARK.json names a per_layer metric after it"
               for m in benchmark["per_layer"]}
    for path, why in (("perfbench/oracle.py", "perfbench's output oracle imports it"),
                      ("tests/test_acceptance.py", "the acceptance gate imports it")):
        allowed.update(dict.fromkeys(imported_from_package(ROOT / path), why))
    return allowed


def unused_public_names():
    refs = {path.stem: referenced_names(path) for path in SRC.glob("*.py")}
    allowed = allow_list()
    unused = []
    for info in pkgutil.iter_modules(ballavoid.__path__):
        module = importlib.import_module(f"ballavoid.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            own_module_counts = inspect.isclass(obj) or info.name == "cli"
            used = (
                name in ballavoid.__all__
                or any(name in names for mod, names in refs.items()
                       if mod not in (info.name, "__init__"))
                or (own_module_counts and name in refs[info.name])
                or f"{info.name}.{name}" in allowed
            )
            if not used:
                unused.append(f"{info.name}.{name}")
    return unused


def test_every_public_name_is_used():
    assert unused_public_names() == []


def test_unused_helper_is_reported(monkeypatch):
    from ballavoid import volume

    def helper():
        pass

    helper.__module__ = volume.__name__
    monkeypatch.setattr(volume, "helper", helper, raising=False)
    assert unused_public_names() == ["volume.helper"]



def private_definitions(tree):
    """Private names a module binds at its top level by def, class or
    assignment; dunders such as __all__ are not private."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def loaded_names(tree):
    """Every name read, attribute and imported name in a module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def package_sources():
    return {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}


def unused_private_names(sources):
    """module.name for each private top-level name of the modules in
    sources (module -> source text) that none of them loads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    loaded = set().union(*map(loaded_names, trees.values()))
    return sorted(f"{module}.{name}" for module, tree in trees.items()
                  for name in private_definitions(tree) if name not in loaded)


def test_every_private_name_is_loaded():
    assert unused_private_names(package_sources()) == []


def test_unused_private_helper_is_reported():
    sources = package_sources()
    sources["volume"] += "\n\ndef _helper():\n    pass\n\n\n_LIMIT: int = 3\n"
    assert unused_private_names(sources) == ["volume._LIMIT", "volume._helper"]
