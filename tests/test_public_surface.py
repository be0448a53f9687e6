"""Every public function, class and method in src/swpnet has a caller
outside the unit tests: a reference in the package itself, in the benchmark
scripts or in the acceptance suite.  An import alone is not a caller."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# qualified name -> why it stays without such a caller
ALLOWED: dict[str, str] = {}


def public_names() -> dict[str, str]:
    """Bare name -> qualified name, for every public top-level function or
    class and every public method of a top-level class."""
    found = {}
    for path in sorted((ROOT / "src" / "swpnet").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            found[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        found[f"{path.stem}.{node.name}.{member.name}"] = member.name
    return found


def referenced_names() -> set[str]:
    """Every name read as a bare name or an attribute in the callers."""
    callers = [*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").glob("*.py"),
               ROOT / "tests" / "test_acceptance.py"]
    refs = set()
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                refs.add(node.attr)
    return refs


def test_every_public_name_has_a_caller_outside_unit_tests():
    refs = referenced_names()
    uncalled = {qual for qual, name in public_names().items() if name not in refs}
    unused = sorted(uncalled - set(ALLOWED))
    assert not unused, f"only unit tests reach {unused}: delete them or call them from the program"
    stale = sorted(set(ALLOWED) - uncalled)
    assert not stale, f"{stale} now have callers or are gone: drop them from ALLOWED"
