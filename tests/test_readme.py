"""README's library quickstart runs, and every name README keeps exists.

The quickstart is the first ``python`` block under "## Library quickstart";
a ``print`` line that ends in ``# text`` must print that text.  The kept
names are the backticked names of the list after "These names stay": each
must resolve to a module, class, function or method of the package, so a
deleted or renamed documented name fails here.

``python tests/test_readme.py`` runs the quickstart alone, with the package
and no test dependency installed.
"""

import importlib
import pkgutil
import re
from pathlib import Path

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def quickstart() -> str:
    match = re.search(r"^## Library quickstart\n+```python\n(.*?)^```", README, re.M | re.S)
    assert match, "README has no python block under '## Library quickstart'"
    return match.group(1)


def run_quickstart() -> None:
    exec(compile(quickstart(), "README.md", "exec"), {"__name__": "readme_quickstart"})


def kept_names() -> list:
    """The backticked names of the list after "These names stay", call
    arguments dropped; paths and expressions are not names."""
    block = re.search(r"These names stay.*?\n- .*?(\n\n|\Z)", README, re.S).group(0)
    tokens = (re.sub(r"\(.*\)$", "", t) for t in re.findall(r"`([^`]+)`", block))
    return [t for t in tokens if re.fullmatch(r"[A-Za-z_]\w*(\.\w+)*", t)]


def _resolve(name: str):
    """The package object ``name`` names: a module of the package, or a
    name a module defines, then attributes a package class defines."""
    import cremona_kit

    modules = {m.name for m in pkgutil.iter_modules(cremona_kit.__path__)}
    head, *rest = name.split(".")
    if head in modules:
        obj = importlib.import_module(f"cremona_kit.{head}")
    else:
        found = [
            vars(m)[head]
            for m in (importlib.import_module(f"cremona_kit.{n}") for n in sorted(modules))
            if head in vars(m)
        ]
        assert found, f"no module of the package has {head!r}"
        obj = found[0]
    for part in rest:
        owners = [k for k in getattr(obj, "__mro__", ()) if k.__module__.startswith("cremona_kit")]
        if owners:
            assert any(part in vars(k) for k in owners), f"{name}: no {part!r} on {obj.__name__}"
        obj = getattr(obj, part)
    module = getattr(obj, "__module__", None) or obj.__name__  # a module has no __module__
    assert module.startswith("cremona_kit"), f"{name} is not defined in the package"
    return obj


def test_quickstart_runs_and_prints_what_it_says(capsys):
    run_quickstart()
    printed = capsys.readouterr().out.splitlines()
    prints = [line for line in quickstart().splitlines() if line.startswith("print(")]
    assert len(printed) == len(prints)
    for line, out in zip(prints, printed):
        if "  # " in line:
            assert out == line.split("  # ", 1)[1].strip()


def test_every_kept_name_resolves():
    names = kept_names()
    assert {"tri_divrem", "jonquieres.invert", "CremonaMap.of"} <= set(names)
    for name in names:
        assert _resolve(name) is not None, name


if __name__ == "__main__":
    run_quickstart()
