"""The names README.md and the package sources give in backticks resolve
to package objects."""

import dataclasses
import importlib
import inspect
import pathlib
import re

MODULES = ("cli", "dynamics", "exact", "ground", "lattice", "paths")
ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SOURCES = sorted((ROOT / "src" / "plaquette").glob("*.py"))
NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _modules():
    return {m: importlib.import_module(f"plaquette.{m}") for m in MODULES}


def _package_classes(modules):
    """Classes defined in the package, by name."""
    return {name: obj for mod in modules.values() for name, obj in vars(mod).items()
            if inspect.isclass(obj) and obj.__module__.startswith("plaquette.")}


def _has(obj, attr):
    """attr is an attribute of obj, or a field of the dataclass obj."""
    if hasattr(obj, attr):
        return True
    return dataclasses.is_dataclass(obj) and attr in {f.name for f in dataclasses.fields(obj)}


def _names(doc, modules, classes):
    """Backticked names in the text doc that start with a package module,
    an underscore, or a package class followed by an attribute."""
    names = set()
    for text in re.findall(r"`([^`\n]+)`", doc):
        if not NAME.fullmatch(text):
            continue
        head = text.split(".")[0]
        if head in modules or head == "plaquette" or text.startswith("_") or (
                head in classes and "." in text):
            names.add(text)
    return sorted(names)


def _resolves(name, modules, classes):
    parts = name.split(".")
    if parts[0] == "plaquette":
        try:
            importlib.import_module(name)
            return True
        except ImportError:
            parts = parts[1:]
    if parts[0] in modules:
        obj, rest = modules[parts[0]], parts[1:]
    elif parts[0] in classes:
        obj, rest = classes[parts[0]], parts[1:]
    else:
        # a bare private name, defined in some module
        owners = [m for m in modules.values() if hasattr(m, parts[0])]
        if not owners:
            return False
        obj, rest = getattr(owners[0], parts[0]), parts[1:]
    for attr in rest:
        if not _has(obj, attr):
            return False
        obj = getattr(obj, attr, None)
    return True


def test_readme_names_resolve():
    modules = _modules()
    classes = _package_classes(modules)
    # the resolver tells names apart, dataclass fields included
    assert _resolves("Trajectory.times", modules, classes)
    assert not _resolves("Trajectory.nope", modules, classes)
    assert not _resolves("_no_such_name", modules, classes)
    names = _names(README.read_text(), modules, classes)
    assert len(names) > 20  # the filter still finds the documented names
    missing = [n for n in names if not _resolves(n, modules, classes)]
    assert not missing, f"README names no package object: {missing}"


def test_source_names_resolve():
    # docstrings and comments name code the same way, and go stale the same way
    modules = _modules()
    classes = _package_classes(modules)
    assert {p.stem for p in SOURCES} >= set(MODULES)
    missing, found = {}, 0
    for path in SOURCES:
        names = _names(path.read_text(), modules, classes)
        found += len(names)
        bad = [n for n in names if not _resolves(n, modules, classes)]
        if bad:
            missing[path.name] = bad
    assert found > 40  # the filter still finds the named code
    assert not missing, f"sources name no package object: {missing}"
