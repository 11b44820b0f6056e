"""The package's import graph, read from the source with ast.

Every import statement counts, function-local ones included: a local
import that closes a cycle only defers the cycle to the first call.  The
package __init__ re-exports every module, so it is left out of the graph;
a module may read from it only names that it defines before its first
import.
"""

import ast
import pathlib

import pytest

import lyacert

PACKAGE = pathlib.Path(lyacert.__file__).parent
TREES = {path.stem: ast.parse(path.read_text(), str(path))
         for path in sorted(PACKAGE.glob("*.py"))}


def _imports(tree):
    """(module, names) for every import in ``tree``: module as an absolute
    dotted name, names the ones a ``from`` import binds (else ())."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, ()
        elif isinstance(node, ast.ImportFrom):
            assert node.level <= 1, "imports reach at most the package itself"
            parts = ["lyacert"] * node.level + ([node.module] if node.module else [])
            yield ".".join(parts), tuple(alias.name for alias in node.names)


def _package_edges(tree):
    """Stems of the package modules that ``tree`` imports, __init__ aside."""
    out = set()
    for module, names in _imports(tree):
        for target in [module] + [f"{module}.{name}" for name in names]:
            prefix, _, stem = target.partition(".")
            if prefix == "lyacert" and stem in TREES and stem != "__init__":
                out.add(stem)
    return out


def _cycle(edges):
    """One cycle of the directed graph ``edges`` as a list of nodes, or None."""
    state = {}

    def visit(node, path):
        state[node] = "open"
        for nxt in sorted(edges[node]):
            if state.get(nxt) == "open":
                return path[path.index(nxt):] + [nxt]
            if nxt not in state:
                found = visit(nxt, path + [nxt])
                if found:
                    return found
        state[node] = "done"
        return None

    for node in sorted(edges):
        if node not in state:
            found = visit(node, [node])
            if found:
                return found
    return None


def test_import_graph_is_acyclic():
    edges = {stem: _package_edges(tree) for stem, tree in TREES.items()
             if stem != "__init__"}
    assert _cycle(edges) is None, " -> ".join(_cycle(edges))


def test_cycle_finder_sees_a_cycle():
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert _cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) is None


def _defined_before_imports(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            break
        if isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("stem", sorted(set(TREES) - {"__init__"}))
def test_reads_from_the_package_only_what_it_defines_first(stem):
    ready = _defined_before_imports(TREES["__init__"])
    for module, names in _imports(TREES[stem]):
        if module == "lyacert":
            assert set(names) <= ready | set(TREES), names
