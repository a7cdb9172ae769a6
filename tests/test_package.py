import ast
import re
from collections import Counter
from pathlib import Path

import hypcap

SRC = Path(hypcap.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
# Defaulted parameters plus defaulted dataclass fields in src/hypcap.  Each
# one doubles the configurations that tests must cover, so a change that adds
# a knob shows its measured benefit and raises this number in the same change.
KNOB_BUDGET = 59


def _is_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _knobs(tree: ast.AST) -> int:
    n = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            n += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            n += sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
    return n


def test_all_names_resolve():
    assert len(set(hypcap.__all__)) == len(hypcap.__all__)
    for name in hypcap.__all__:
        assert getattr(hypcap, name) is not None, name


def test_knob_budget():
    count = sum(_knobs(ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py")))
    assert count <= KNOB_BUDGET


def _module_names(tree: ast.Module):
    """Names bound at module level: functions, classes and assignment targets."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))


def test_module_names_are_used():
    # a name that occurs only where it is defined is read by nothing
    sources = [p for d in ("src/hypcap", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    words = Counter(w for p in sources for w in re.findall(r"\w+", p.read_text()))
    unused = [
        f"{path.name}:{name}"
        for path in sorted((ROOT / "src/hypcap").glob("*.py"))
        for name in _module_names(ast.parse(path.read_text()))
        if words[name] < 2
    ]
    assert unused == []
