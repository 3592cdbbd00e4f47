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

A defaulted parameter of a module-level function must be passed by some
call in src/, tests/ or perfbench/; one that no caller sets is dead.
And every function a per_layer metric of BENCHMARK.json names must stay
a public function of its module, or the traced benchmark cannot measure
that metric.

sampling.py calls neither np.sin nor np.cos: every cosine of verify's
kernels comes from _cos_2pi's fold to a tangent, as README states.
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


def per_layer_names():
    """Every per_layer metric name in BENCHMARK.json."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in benchmark["per_layer"]]


def allow_list():
    """module.name -> why a consumer outside src/ needs it."""
    allowed = {".".join(name.split(".")[:2]): "BENCHMARK.json names a per_layer metric after it"
               for name in per_layer_names()}
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


def unmeasurable_metric_functions():
    """layer.name for each per_layer metric layer.name.metric whose layer is
    a package module but whose name is not a public function defined there,
    which is what perfbench/tracer.py wraps."""
    layers = {info.name for info in pkgutil.iter_modules(ballavoid.__path__)}
    missing = set()
    for metric in per_layer_names():
        parts = metric.split(".")
        if len(parts) == 3 and parts[0] in layers:
            module = importlib.import_module(f"ballavoid.{parts[0]}")
            fn = getattr(module, parts[1], None)
            if parts[1].startswith("_") or not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
                missing.add(f"{parts[0]}.{parts[1]}")
    return sorted(missing)


def test_every_metric_function_exists():
    assert unmeasurable_metric_functions() == []


def test_missing_metric_function_is_reported(monkeypatch):
    from ballavoid import volume

    monkeypatch.delattr(volume, "maximize_a")
    assert unmeasurable_metric_functions() == ["volume.maximize_a"]


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


def defaulted_parameters(tree):
    """function -> (positional parameters, names of the defaulted ones) for
    each module-level function of a module, positional or keyword-only."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            args = node.args
            positional = [arg.arg for arg in args.posonlyargs + args.args]
            defaulted = positional[len(positional) - len(args.defaults):] + [
                arg.arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
            if defaulted:
                found[node.name] = (positional, defaulted)
    return found


def passed_parameters(tree, functions):
    """(function, parameter) for each parameter of functions (name ->
    (positional, defaulted), as from defaulted_parameters) that some call
    in tree passes by position, by keyword or through * or **.  A call
    names its function directly or as an attribute."""
    passed = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name not in functions:
            continue
        positional, defaulted = functions[name]
        if any(isinstance(arg, ast.Starred) for arg in node.args):
            passed.update((name, param) for param in positional)
        else:
            passed.update((name, param) for param in positional[: len(node.args)])
        for keyword in node.keywords:
            if keyword.arg is None:
                passed.update((name, param) for param in defaulted)
            else:
                passed.add((name, keyword.arg))
    return passed


def caller_sources():
    """path -> source text of every module in tests/ and perfbench/."""
    return {path: path.read_text(encoding="utf-8")
            for pattern in ("tests/*.py", "perfbench/*.py") for path in sorted(ROOT.glob(pattern))}


def unpassed_parameters(sources, callers):
    """module.function(parameter) for each defaulted parameter of a
    module-level function of the package modules in sources (module ->
    source text) that no call in them or in callers (any -> source text)
    passes."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defaults = {module: defaulted_parameters(tree) for module, tree in trees.items()}
    functions = {name: signature for found in defaults.values() for name, signature in found.items()}
    passed = set()
    for tree in [*trees.values(), *map(ast.parse, callers.values())]:
        passed |= passed_parameters(tree, functions)
    return sorted(f"{module}.{name}({param})" for module, found in defaults.items()
                  for name, (_, defaulted) in found.items()
                  for param in defaulted if (name, param) not in passed)


def test_every_defaulted_parameter_is_passed():
    assert unpassed_parameters(package_sources(), caller_sources()) == []


def test_unpassed_parameter_is_reported():
    sources = package_sources()
    sources["volume"] += ("\n\ndef _helper(x, y=1, *, z=2, w=3):\n    pass\n\n\n"
                          "_helper(0, w=4)\n_helper(*[0])\n")
    assert unpassed_parameters(sources, caller_sources()) == ["volume._helper(z)"]


def array_trig_calls(source):
    """np.sin or np.cos for each call of either in source."""
    return [f"np.{node.func.attr}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("sin", "cos")
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"]


def test_sampling_calls_no_array_sine_or_cosine():
    assert array_trig_calls(package_sources()["sampling"]) == []


def test_array_sine_call_is_reported():
    source = package_sources()["sampling"] + "\n\nnp.sin(np.zeros(1), out=None)\n"
    assert array_trig_calls(source) == ["np.sin"]
