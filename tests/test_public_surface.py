"""Every public function, class and method in src/swpnet has a caller
outside the unit tests: a reference in the package itself, in the benchmark
scripts or in the acceptance suite.  An import alone is not a caller.  And
no public function is only a second name for another."""

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


def is_pass_through(fn: ast.FunctionDef) -> bool:
    """Whether fn's body, after its docstring, is one `return f(...)` that
    hands on fn's own parameters unchanged and in order."""
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    if len(body) != 1 or not isinstance(body[0], ast.Return) or not isinstance(body[0].value, ast.Call):
        return False
    call, args = body[0].value, fn.args
    params = [a.arg for a in (*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg)
              if a is not None]
    passed = [getattr(v.value if isinstance(v, ast.Starred) else v, "id", None) for v in call.args]
    passed += [k.value.id if isinstance(k.value, ast.Name) and k.arg in (None, k.value.id) else None
               for k in call.keywords]
    return passed == params


def test_no_public_function_only_forwards_its_arguments():
    forwarding = sorted(
        f"{path.stem}.{node.name}"
        for path in (ROOT / "src" / "swpnet").glob("*.py")
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_") and is_pass_through(node))
    assert not forwarding, f"{forwarding} only pass their arguments on: call what they call instead"
