"""Rules about the source tree itself, which no module's own tests see."""

import ast
import tomllib
from collections import Counter
from pathlib import Path

import pytest

from glgat import autodiff as ad
from glgat.model import VARIANTS, model_forward
from glgat.training import batch_smooth_l1, stack_inputs, stack_targets

from test_model import pipeline

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
    """Top-level functions and classes, and the methods of those classes."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield node
            yield from (f for f in node.body if isinstance(f, ast.FunctionDef))
        elif isinstance(node, ast.FunctionDef):
            yield node


def test_src_holds_no_test_only_code():
    """Each class, function and method defined in src/glgat is used by name
    in src/glgat or perfbench/, outside its own body; code only tests call
    or construct belongs in tests/. Dunders, dataclass hooks among them, are
    exempt, and so is the console-script entry point."""
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


# The ops the fused ``attend`` is tested against bit for bit, its pairwise
# term among them; the model records none of them.
REFERENCE_OPS = {"matmul", "gelu", "masked_softmax", "slice", "pairwise_scores"}


def _declared_ops() -> set[str]:
    """Every op name autodiff.py records with a backward rule: the constant
    op of each ``_make`` call, and of each ``_add`` and ``_bank_product``
    call."""
    names = set()
    for node in ast.walk(ast.parse((SRC / "autodiff.py").read_text())):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        args = node.args
        if node.func.id == "_make":
            op = args[3]
        elif node.func.id in ("_add", "_bank_product"):
            op = args[2]
        else:
            continue
        if isinstance(op, ast.Constant):
            names.add(op.value)
    return names


@pytest.fixture(scope="module")
def step_tapes() -> dict[str, list]:
    """Per variant, the tape nodes of one recorded training step."""
    tapes = {}
    for variant in VARIANTS:
        _, _, _, splits, model = pipeline(variant=variant)
        batch = splits.train[:2]
        loss = batch_smooth_l1(model_forward(model, stack_inputs(batch)), *stack_targets(batch))
        tapes[variant] = ad.Tape(loss).nodes
    return tapes


def test_every_backward_rule_is_recorded_by_some_variant(step_tapes):
    """A training step of some variant records each op autodiff.py defines a
    backward rule for, the reference ops excepted, which no variant records;
    a rule nothing records fails here."""
    declared = _declared_ops()
    assert REFERENCE_OPS <= declared
    recorded = {
        variant: {node.op for node in nodes if node.rule is not None}
        for variant, nodes in step_tapes.items()
    }
    for variant, ops in recorded.items():
        assert not ops & REFERENCE_OPS, f"{variant} records {sorted(ops & REFERENCE_OPS)}"
    union = set().union(*recorded.values())
    assert union == declared - REFERENCE_OPS, (
        f"recorded by no variant: {sorted(declared - REFERENCE_OPS - union)}; "
        f"recorded but not declared: {sorted(union - declared)}"
    )


def test_no_step_slices(step_tapes):
    """Every floor takes its query whole: ``attend`` reads the attention
    channels and, with a pairwise table, the pairwise channels after them
    in place."""
    slices = {v: sum(node.op == "slice" for node in nodes) for v, nodes in step_tapes.items()}
    assert slices == dict.fromkeys(VARIANTS, 0)


# Recorded ops of one training step, leaves excluded, at most.
STEP_OP_CEILINGS = {"full": 64, "ablation1": 64, "ablation2": 64, "ablation3": 44}


def test_a_step_records_no_more_ops_than_its_ceiling(step_tapes):
    """``attend`` takes the floors' rows, computes the pairwise term and
    merges its own heads, so the only layout ops of a step are the
    time-flatten's permute and reshape."""
    for variant, nodes in step_tapes.items():
        ops = Counter(node.op for node in nodes if node.rule is not None)
        layout = {op: ops[op] for op in ("permute", "reshape", "slice")}
        assert layout == {"permute": 1, "reshape": 1, "slice": 0}
        assert sum(ops.values()) <= STEP_OP_CEILINGS[variant], (variant, dict(ops))


def test_no_backward_rule_holds_a_tensor(step_tapes):
    """A recorded rule closes over the arrays, shapes and parent nodes it
    reads, never over a ``DiffTensor``, directly or inside a list or tuple:
    a tensor would keep its value alive for as long as the graph."""
    held = set()
    for variant, nodes in step_tapes.items():
        for node in nodes:
            for cell in (node.rule.__closure__ or ()) if node.rule is not None else ():
                value = cell.cell_contents
                items = value if isinstance(value, (list, tuple)) else (value,)
                if any(isinstance(item, ad.DiffTensor) for item in items):
                    held.add(f"{variant}: {node.op} holds {type(value).__name__}")
    assert not held, sorted(held)


def test_autodiff_keeps_one_per_thread_state():
    """autodiff.py creates exactly one ``threading.local``: the switch of
    ``no_grad()``, the results of ``reuse_scope()`` and the weights
    ``attend`` last scanned are all read from one per-thread object, in the
    calling thread."""
    tree = ast.parse((SRC / "autodiff.py").read_text())
    made = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "local"
        and isinstance(node.value, ast.Name)
        and node.value.id == "threading"
    ]
    imported = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "threading"
    ]
    assert len(made) == 1 and not imported, f"threading.local at lines {made + imported}"
