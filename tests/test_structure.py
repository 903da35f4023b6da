"""The package's design rules, read from its source with the stdlib ast.

src/polygrid imports only itself and the standard library; it checks with
raise alone, never with an assert statement or __debug__, so a run under
python -O checks the same facts; its modules import one another only
along the graph written out below; and it binds no import that it does
not use.
"""

import ast
import sys
from functools import cache
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# module -> the polygrid modules it imports
GRAPH = {
    "__init__": {"ordset"},
    "ordset": set(),
    "trees": {"ordset"},
    "antiramsey": {"ordset"},
    "deltasys": {"ordset"},
    "ph": {"antiramsey", "ordset"},
    "hl": {"ordset", "trees"},
    # the deltasys edge serves only the unused extract_uniform below
    "forcing": {"deltasys", "hl", "ordset", "trees"},
    "cli": {"antiramsey", "deltasys", "forcing", "hl", "ordset", "ph",
            "trees"},
}

# imports kept unused so that bench/tracing.py can patch these names
TRACER_NAMES = {
    ("forcing", "extract_uniform"),
    ("forcing", "ColoringOracle"),
    ("deltasys", "aligned"),
    ("deltasys", "rset"),
}


@cache
def modules() -> dict[str, list[ast.AST]]:
    """Module name under polygrid -> every node of its syntax tree."""
    return {str(path.relative_to(SRC / "polygrid").with_suffix("")):
            list(ast.walk(ast.parse(path.read_text(), str(path))))
            for path in sorted(SRC.rglob("*.py"))}


def imports(nodes: list[ast.AST]) -> list[ast.AST]:
    return [node for node in nodes
            if isinstance(node, (ast.Import, ast.ImportFrom))]


def imported(nodes: list[ast.AST]) -> set[str]:
    """The dotted names of the modules a module imports, relative imports
    resolved inside polygrid."""
    found = set()
    for node in imports(nodes):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
            continue
        base = node.module
        if node.level:
            base = "polygrid" + (f".{base}" if base else "")
        if base == "polygrid":  # from . import a, b
            found |= {f"{base}.{alias.name}" for alias in node.names}
        else:
            found.add(base)
    return found


def test_imports_are_the_package_or_the_standard_library():
    outside = {(name, module) for name, nodes in modules().items()
               for module in imported(nodes)
               if module.split(".")[0] != "polygrid"
               and module.split(".")[0] not in sys.stdlib_module_names}
    assert not outside


def test_no_assert_and_no_debug_flag():
    found = [(name, node.lineno)
             for name, nodes in modules().items() for node in nodes
             if isinstance(node, ast.Assert)
             or isinstance(node, ast.Name) and node.id == "__debug__"]
    assert not found


def test_import_graph_is_the_layering():
    graph = {name: {module.split(".")[1] for module in imported(nodes)
                    if module.startswith("polygrid.")}
             for name, nodes in modules().items()}
    assert graph == GRAPH


def test_every_import_is_used():
    unused = set()
    for name, nodes in modules().items():
        used = {node.id for node in nodes if isinstance(node, ast.Name)}
        for node in nodes:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in node.targets)):
                used |= set(ast.literal_eval(node.value))
        for node in imports(nodes):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            bound = {(alias.asname or alias.name).split(".")[0]
                     for alias in node.names}
            unused |= {(name, b) for b in bound - used}
    # the allowlist must also stay exact: a tracer name put to use or
    # deleted leaves it
    assert unused == TRACER_NAMES
