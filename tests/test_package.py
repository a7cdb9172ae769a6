import ast
from pathlib import Path

import hypcap

SRC = Path(hypcap.__file__).parent
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
