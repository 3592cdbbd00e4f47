"""The package's public surface holds only what something uses.

A public function or class of a ballavoid submodule must be exported in
``__all__``, referenced from another module of the package, or named by
a consumer outside ``src/``: a per_layer metric of BENCHMARK.json, the
output oracle of perfbench, or the acceptance gate.  Classes (the records
public functions return) and the CLI's handlers, which its parser binds,
may instead be referenced from their own module.  A helper nothing uses
fails here; so do the sampler wrappers once the benchmark drops their
metrics.
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

