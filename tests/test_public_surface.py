"""Every public name of ``homopart`` has a caller outside the tests.

The public surface is read from ``src/homopart/*.py`` with ``ast``:
top-level functions, classes and ALL-CAPS constants, and the methods of
public classes; a leading underscore marks a name private. A name is
used when some module of the package, a script, a demo or a
``perfbench`` module loads it as a bare name or reads it as an
attribute. Definitions, the package's ``__init__`` re-exports and the
strings of ``__all__`` do not count.

The check is by name only: a method counts as used when any attribute
or variable of that name is read anywhere, on any object. So it cannot
flag a method named like something else in use: a ``rows`` method
beside the ``rows`` array of ``BipartiteGraph``, a ``complete``
constructor beside a witness's ``complete`` box, or an ``edges``
method beside a local ``edges`` array. Such members need a grep for
their qualified names.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "homopart"

# name -> why it stays without a caller
ALLOWED = {
    "weak_regularity_witness": (
        "perfbench/spans.py wraps it by its name as a string, for the "
        "per-layer metric auditor.weak_regularity_witness_s"
    ),
}


def public_names():
    """{name: where} of the package's public top-level names and of the
    public methods of its public classes."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            where = f"{path.name}:{node.lineno}"
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if node.name.startswith("_"):
                    continue
                found.setdefault(node.name, where)
                if isinstance(node, ast.ClassDef):
                    for member in node.body:
                        if (isinstance(member, ast.FunctionDef)
                                and not member.name.startswith("_")):
                            found.setdefault(
                                member.name,
                                f"{path.name}:{member.lineno} "
                                f"{node.name}.{member.name}")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if (isinstance(target, ast.Name) and target.id.isupper()
                            and not target.id.startswith("_")):
                        found.setdefault(target.id, where)
    return found


def user_paths():
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    for tree in ("scripts", "demos", "perfbench"):
        paths += (ROOT / tree).glob("*.py")
    return sorted(paths)


def used_names():
    used = set()
    for path in user_paths():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_scan_sees_every_tree():
    trees = {p.parent.name for p in user_paths()}
    assert trees == {"homopart", "scripts", "demos", "perfbench"}
    names = public_names()
    assert "homogeneous_partition" in names
    assert "fiber_rows" in names and "MODES" in names


def test_every_public_name_has_a_caller():
    used = used_names()
    unused = {name: where for name, where in public_names().items()
              if name not in used and name not in ALLOWED}
    assert unused == {}


def test_allowed_names_are_still_unused():
    # an allowed name that gains a caller leaves the list
    public, used = public_names(), used_names()
    for name in ALLOWED:
        assert name in public and name not in used
