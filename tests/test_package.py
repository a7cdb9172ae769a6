import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import hypcap

SRC = Path(hypcap.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
# Defaulted parameters plus defaulted dataclass fields in src/hypcap.  Each
# one doubles the configurations that tests must cover, so a change that adds
# a knob shows its measured benefit and raises this number in the same change.
KNOB_BUDGET = 52


def _is_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _knobs(node: ast.AST, where: str):
    """function.param and Class.field of every knob under node, prefixed by where."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = where + getattr(child, "name", "<lambda>")
            a = child.args
            positional = a.posonlyargs + a.args
            yield from (f"{name}.{p.arg}" for p in positional[len(positional) - len(a.defaults) :])
            yield from (f"{name}.{p.arg}" for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
            yield from _knobs(child, name + ".")
        elif isinstance(child, ast.ClassDef):
            if _is_dataclass(child):
                fields = [s.target.id for s in child.body if isinstance(s, ast.AnnAssign) and s.value is not None]
                yield from (f"{where}{child.name}.{f}" for f in fields)
            yield from _knobs(child, f"{where}{child.name}.")
        else:
            yield from _knobs(child, where)


def test_all_names_resolve():
    assert len(set(hypcap.__all__)) == len(hypcap.__all__)
    for name in hypcap.__all__:
        assert getattr(hypcap, name) is not None, name


def test_knob_budget():
    knobs = [f"{path.name}:{k}" for path in sorted(SRC.glob("*.py")) for k in _knobs(ast.parse(path.read_text()), "")]
    assert len(knobs) <= KNOB_BUDGET, "\n".join(knobs)


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


# only the filled regions and RectSet use scipy, and they import it where
# they use it: the estimators, the areas and the covers run without it
_SCIPY_CHILD = """
import sys
import hypcap, hypcap.verify
from hypcap import capacity, dyadic
from hypcap.geom import ArcBox, DiskCompact, HalfDisk, HalfPlaneHull, RadialSlit, VSlit
from hypcap.hyperbolic import RectSet, filled_region, neighborhood_area

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

A = HalfPlaneHull([VSlit(0.0, 1.0), HalfDisk(2.0, 0.5)])
B = DiskCompact([RadialSlit(0.5, 0.7), ArcBox(2.0, 2.8, 0.8)])
capacity.hcap_mc(A, 200, seed=1)
capacity.dcap_mc(B, 200, seed=1)
capacity.dcap_transport(A, 8.0, 200, seed=1)
neighborhood_area(A, 1.0, 1e-1, relative=True)
neighborhood_area(B, 1.0, 1e-1, relative=True)
dyadic.dyadic_cover(B)
dyadic.whitney_cover_area(A)
dyadic.lipschitz_majorant_area(A)
print(scipy_modules())
region = filled_region(B, 1.0, 1e-1)
print("scipy.sparse.csgraph" in sys.modules, "scipy.spatial" in sys.modules)
RectSet(*region.blocked_rects())
print("scipy.spatial" in sys.modules)
"""


def test_scipy_loads_only_for_filled_regions():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, "-c", _SCIPY_CHILD], capture_output=True, text=True, env=env, check=True
    )
    assert child.stdout.splitlines() == ["[]", "True False", "True"]
