"""The README's import blocks are the public API: they must run, and each
module's line must name exactly that module's ``__all__``."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import riskcap

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_imports() -> list:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    return [node for block in blocks for node in ast.parse(block).body
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "riskcap"]


def _modules() -> dict:
    return {
        info.name: importlib.import_module(f"riskcap.{info.name}")
        for info in pkgutil.iter_modules(riskcap.__path__)
    }


def test_readme_imports_run():
    imports = _readme_imports()
    assert any(node.module == "riskcap" for node in imports)
    for node in imports:
        exec(compile(ast.Module([node], type_ignores=[]), str(README), "exec"), {})


def test_every_all_name_resolves():
    for name, module in _modules().items():
        for attr in module.__all__:
            assert hasattr(module, attr), f"riskcap.{name}.{attr}"


def test_readme_lists_each_module_all():
    listed = {node.module: [alias.name for alias in node.names] for node in _readme_imports()}
    for name, module in _modules().items():
        assert sorted(listed.get(f"riskcap.{name}", [])) == sorted(module.__all__), name


def _trees() -> dict:
    return {
        info.name: ast.parse(Path(riskcap.__path__[0], f"{info.name}.py").read_text())
        for info in pkgutil.iter_modules(riskcap.__path__)
    }


def test_no_module_imports_a_private_name_of_another():
    for name, tree in _trees().items():
        private = [alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level
                   for alias in node.names if alias.name.startswith("_")]
        assert not private, f"riskcap.{name} imports {private}"


def test_one_csv_reader_and_one_csv_writer():
    # Every CSV goes through cli's one reader and one writer, which own the
    # number format and the malformed-row rule.
    calls = [f"{name}: csv.{node.func.attr}" for name, tree in _trees().items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name) and node.func.value.id == "csv"]
    assert sorted(calls) == ["cli: csv.reader", "cli: csv.writer"]


def test_one_batch_layout():
    # Every estimator walks mc_engine's one batch layout (_layout and _matrices),
    # which owns the count histogram draw and the chunk rule.
    nodes = [(name, node) for name, tree in _trees().items() for node in ast.walk(tree)]
    draws = [name for name, node in nodes if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and node.func.attr == "multinomial"]
    chunks = [name for name, node in nodes if isinstance(node, ast.BinOp)
              and isinstance(node.op, ast.FloorDiv) and isinstance(node.left, ast.Name)
              and node.left.id == "CHUNK_LOSSES"]
    assert draws == ["mc_engine"] and chunks == ["mc_engine"]


def test_one_severity_tail():
    # Every severity tail is distributions.severity_tail: no other module refers to
    # erfc or takes a tail from NormalDist(...).cdf.
    nodes = [(name, node) for name, tree in _trees().items() for node in ast.walk(tree)]
    erfc = {name for name, node in nodes
            if getattr(node, "id", None) == "erfc" or getattr(node, "attr", None) == "erfc"}
    cdf = {name for name, node in nodes
           if isinstance(node, ast.Attribute) and node.attr == "cdf"
           and isinstance(node.value, ast.Call)
           and "NormalDist" in (getattr(node.value.func, "id", None),
                                getattr(node.value.func, "attr", None))}
    assert erfc == {"distributions"} and cdf <= {"distributions"}


def test_one_capital_report_path():
    # Both capital modes derive the cell's stream and size the kept tail in one place
    # (capital._report), so the two modes cannot drift apart.
    calls = [(getattr(node.func, "attr", getattr(node.func, "id", None)), node.args)
             for node in ast.walk(_trees()["capital"]) if isinstance(node, ast.Call)]
    cell_streams = [f for f, args in calls
                    if f == "substream" and args and getattr(args[0], "value", None) == "cell"]
    tails = [f for f, _ in calls if f == "quantile_tail"]
    assert len(cell_streams) == len(tails) == 1


def test_one_realization_path():
    # Both experiments draw, fit and simulate a realization in one place
    # (experiments._fit_and_quantiles), so the track and the study cannot drift apart.
    tree = _trees()["experiments"]

    def called(root):
        names = (getattr(node.func, "id", getattr(node.func, "attr", None))
                 for node in ast.walk(root) if isinstance(node, ast.Call))
        return sorted(n for n in names if n in ("generate_synthetic", "simulate_pair"))

    realization, = [node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "_fit_and_quantiles"]
    assert called(tree) == called(realization) == ["generate_synthetic", "simulate_pair"]


def _owners(tree, match) -> list:
    """The name of the innermost function around each node of ``tree`` that ``match`` takes."""
    found = []

    def visit(node, owner):
        if match(node):
            found.append(owner)
        if isinstance(node, ast.FunctionDef):
            owner = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


def test_one_number_reader():
    # cli applies its number grammar in _parse alone, and tests for a number a double
    # holds (no bool) in _real alone, so flags, seeds, CSV fields and config cells
    # cannot drift apart.
    tree = _trees()["cli"]
    grammar = _owners(tree, lambda node: isinstance(node, ast.Subscript)
                      and getattr(node.value, "id", None) == "_NUMBER")
    bools = _owners(tree, lambda node: isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "isinstance"
                    and any(getattr(n, "id", None) == "bool"
                            for arg in node.args[1:] for n in ast.walk(arg)))
    assert set(grammar) == {"_parse"} and set(bools) == {"_real"}
