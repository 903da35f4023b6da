"""The package's design rules, read from its source with the stdlib ast.

src/polygrid imports only itself and the standard library; it checks with
raise alone, never with an assert statement or __debug__, so a run under
python -O checks the same facts; its modules import one another only
along the graph written out below; it binds no import that it does not
use; no function writes to a module-level name or memoises itself
for the life of the process, so the package keeps no state between calls;
every module-level function and class, and every method of such a class,
is referenced from src outside its own body, so no library code is
reached only by the tests; only product_census names an arena's color
store, so nothing else can write it; only the two unchecked constructors
call object.__new__, so nothing else builds an object past its checks;
and every module parses at the oldest Python that pyproject.toml admits.
"""

import ast
import re
import sys
from collections import Counter
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

# module-level names that a function may write: the command table, which
# the _command decorator fills at import
MODULE_WRITES = {("cli", "_COMMANDS")}

# module-level definitions that src never references, each kept for a
# caller outside src: bench/tracing.py patches and times
# verify_product_bound, and criterion 09 checks the DDF bridge
UNREFERENCED = {("antiramsey", "verify_product_bound"),
                ("trees", "fpg_witness_sets")}

# method names that change the object they are called on
MUTATORS = {"add", "append", "appendleft", "clear", "difference_update",
            "discard", "extend", "extendleft", "insert",
            "intersection_update", "pop", "popitem", "popleft", "remove",
            "reverse", "setdefault", "sort", "symmetric_difference_update",
            "update"}

# decorators that keep a function's results for the life of the process
MEMOS = {"cache", "lru_cache"}

SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


@cache
def parsed() -> dict[str, ast.Module]:
    """Module name under polygrid -> its syntax tree."""
    return {str(path.relative_to(SRC / "polygrid").with_suffix("")):
            ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.rglob("*.py"))}


@cache
def modules() -> dict[str, list[ast.AST]]:
    """Module name under polygrid -> every node of its syntax tree."""
    return {name: list(ast.walk(tree)) for name, tree in parsed().items()}


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


def bindings(body: list[ast.AST]) -> set[str]:
    """The names a scope's statements bind, not counting nested scopes."""
    names, stack = set(), list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
            continue
        if isinstance(node, (ast.Lambda, *COMPREHENSIONS)):
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(alias.asname or alias.name).split(".")[0]
                      for alias in node.names}
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return names


def base(node: ast.AST) -> str | None:
    """The name an attribute or item chain starts from, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def module_writes(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) for each write inside a function to a module-level
    name: a global statement, an item or attribute store or del through
    the name, or a mutating method called on it; and ("@cache", line) for
    each function memoised for the life of the process."""
    module, found = bindings(tree.body), []

    def visit(node: ast.AST, local: set[str], in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            inner, inside = local, in_function
            if isinstance(child, SCOPES):
                args = child.args
                params = {a.arg for a in (*args.posonlyargs, *args.args,
                                          *args.kwonlyargs, args.vararg,
                                          args.kwarg) if a}
                body = child.body if isinstance(child.body, list) else [
                    child.body]
                inner, inside = local | params | bindings(body), True
                found.extend(("@cache", d.lineno)
                             for d in getattr(child, "decorator_list", [])
                             if MEMOS & {getattr(n, "id", None) or
                                         getattr(n, "attr", None)
                                         for n in ast.walk(d)})
            elif isinstance(child, COMPREHENSIONS):
                inner = local | {n.id for gen in child.generators
                                 for n in ast.walk(gen.target)
                                 if isinstance(n, ast.Name)}
            if inside:
                if isinstance(child, ast.Global):
                    found.extend((name, child.lineno) for name in child.names)
                target = None
                if (isinstance(child, (ast.Attribute, ast.Subscript))
                        and not isinstance(child.ctx, ast.Load)):
                    target = base(child)
                elif (isinstance(child, ast.Call)
                      and isinstance(child.func, ast.Attribute)
                      and child.func.attr in MUTATORS):
                    target = base(child.func.value)
                if target in module and target not in inner:
                    found.append((target, child.lineno))
            visit(child, inner, inside)

    visit(tree, set(), False)
    return found


def test_no_function_writes_module_state():
    found = {(name, target, line) for name, tree in parsed().items()
             for target, line in module_writes(tree)}
    # the allowlist stays exact: a write that goes leaves it
    assert {(name, target) for name, target, _ in found} == MODULE_WRITES, (
        sorted(found))


def references(name: str, node: ast.AST) -> set[tuple[str, str]]:
    """The (module, name) pairs that a module-level statement of module
    `name` may refer to: each bare name, read as the module's own; each
    attribute of a bare name, read as that module's; and each name
    imported from a polygrid module."""
    found = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found.add((name, child.id))
        elif (isinstance(child, ast.Attribute)
              and isinstance(child.value, ast.Name)):
            found.add((child.value.id, child.attr))
        elif isinstance(child, ast.ImportFrom) and child.level:
            found |= {(child.module or alias.name, alias.name)
                      for alias in child.names}
    return found


def is_command(node: ast.AST) -> bool:
    """A handler that cli's _command decorator puts in the command table."""
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None)
               == "_command" for d in node.decorator_list)


def test_every_definition_is_referenced_in_src():
    defined, referenced = set(), set()
    for name, tree in parsed().items():
        for node in tree.body:
            found = references(name, node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                found.discard((name, node.name))  # its own body
                if not is_command(node):
                    defined.add((name, node.name))
            referenced |= found
    # the allowlist stays exact: a definition that goes, or that gains a
    # caller in src, leaves it
    assert defined - referenced == UNREFERENCED, sorted(
        defined - referenced)


def attributes(node: ast.AST) -> Counter:
    """How often each name is read or written as an attribute in node."""
    return Counter(child.attr for child in ast.walk(node)
                   if isinstance(child, ast.Attribute))


def test_every_method_is_referenced_in_src():
    """Every method of a module-level class, dunders aside, is named as an
    attribute somewhere in src outside its own body.  The rule goes by
    name, not by type, so it cannot see a method that only the tests call
    when src calls another class's method of that name: a to_json on
    Family, say, since src calls other classes' to_json."""
    trees = parsed()
    everywhere = sum(map(attributes, trees.values()), Counter())
    unreferenced = []
    for name, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (node.name.startswith("__")
                                 and node.name.endswith("__"))
                        and everywhere[node.name]
                        == attributes(node)[node.name]):
                    unreferenced.append(f"{name}.{cls.name}.{node.name}")
    assert not unreferenced, unreferenced


# an Arena's color store: its per-head rows and the palette of their colors
COLOR_STORE = {"_rows", "_palette"}


def test_only_the_census_names_the_color_store():
    # Arena's own cached properties define the store; every other function
    # that names it, or module-level code that does, would be a second
    # writer or a reader of colors another caller computed
    found = set()

    def visit(node: ast.AST, module: str, scope: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr in COLOR_STORE:
                found.add((module, scope))
            visit(child, module, scope)

    for name, tree in parsed().items():
        visit(tree, name, None)
    assert found == {("antiramsey", "product_census")}, sorted(found)


# (module, Class.method) of each constructor that skips validation: it
# builds from a checked object and checks only what it changes
UNCHECKED_CONSTRUCTORS = {("forcing", "Condition.with_slot"),
                          ("deltasys", "Family._derived")}


def test_only_the_unchecked_constructors_call_object_new():
    found = set()

    def visit(node: ast.AST, module: str, scope: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
                visit(child, module, inner)
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "__new__"
                    and getattr(child.func.value, "id", None) == "object"):
                found.add((module, scope))
            visit(child, module, scope)

    for name, tree in parsed().items():
        visit(tree, name, None)
    # the allowlist stays exact: a constructor that goes leaves it
    assert found == UNCHECKED_CONSTRUCTORS, sorted(found)


def python_floor() -> tuple[int, int]:
    """The least version in pyproject.toml's requires-python, read by
    regex: tomllib is not in the standard library before 3.11."""
    text = (SRC.parent / "pyproject.toml").read_text()
    found = re.search(r'^requires-python\s*=\s*">=(\d+)\.(\d+)"', text,
                      re.MULTILINE)
    assert found, "pyproject.toml names no requires-python floor"
    return int(found[1]), int(found[2])


def test_every_module_parses_at_the_python_floor():
    # the syntax half of the oldest CI leg, checked offline: ast rejects
    # syntax newer than feature_version, such as except* below (3, 11)
    floor = python_floor()
    for path in sorted(SRC.rglob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=floor)
