"""Rules about the source tree itself, which no module's own tests see."""

import ast
import tomllib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "glgat"


def _references(tree: ast.AST) -> Counter:
    """Every identifier a tree uses: names, attributes, and string constants
    that are identifiers (the benchmark wraps functions by name)."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                found[node.value] += 1
    return found


def _definitions(tree: ast.Module):
    """Top-level functions and the methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from (f for f in node.body if isinstance(f, ast.FunctionDef))
        elif isinstance(node, ast.FunctionDef):
            yield node


def test_src_holds_no_test_only_code():
    """Each function and method defined in src/glgat is used by name in
    src/glgat or perfbench/, outside its own body; code only tests call
    belongs in tests/. Dunders, dataclass hooks among them, are exempt, and
    so is the console-script entry point."""
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    allowed = {target.rsplit(":", 1)[1] for target in scripts.values()}
    trees = {p: ast.parse(p.read_text()) for p in (*SRC.glob("*.py"), *ROOT.glob("perfbench/*.py"))}
    used = sum((_references(t) for t in trees.values()), Counter())
    unused = [
        f"{path.name}:{f.lineno} {f.name}"
        for path, tree in trees.items()
        if path.parent == SRC
        for f in _definitions(tree)
        if not (f.name.startswith("__") and f.name.endswith("__"))
        and f.name not in allowed
        and used[f.name] <= _references(f)[f.name]
    ]
    assert not unused, f"defined in src/glgat but used only by tests, or not at all: {unused}"
