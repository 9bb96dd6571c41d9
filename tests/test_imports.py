import ast
import os

PACKAGE = os.path.join(os.path.dirname(__file__), "..", "src", "alphacurvelets")


def package_imports() -> dict[str, set[str]]:
    """Each module of the package (``__init__`` aside) and the package modules it imports.

    Imports inside functions count: a lazy import still closes a cycle.
    """
    modules = {name[:-3] for name in os.listdir(PACKAGE) if name.endswith(".py") and name != "__init__.py"}
    graph = {}
    for module in modules:
        with open(os.path.join(PACKAGE, module + ".py")) as fh:
            tree = ast.parse(fh.read())
        found = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("alphacurvelets."))
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and (node.module or "").startswith("alphacurvelets"):
                    path = node.module.split(".")[1:]
                elif node.level == 1:
                    path = node.module.split(".") if node.module else []
                else:
                    continue
                # ``from . import x`` and ``from alphacurvelets import x`` name modules
                found.update(path[:1] or [a.name for a in node.names])
        graph[module] = found & modules
    return graph


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One import cycle as ``[a, b, ..., a]``, or ``None``, by depth-first search."""
    done, path = set(), []

    def visit(module):
        if module in path:
            return path[path.index(module) :] + [module]
        if module in done:
            return None
        path.append(module)
        for dep in sorted(graph[module]):
            cycle = visit(dep)
            if cycle:
                return cycle
        path.pop()
        done.add(module)
        return None

    for module in sorted(graph):
        cycle = visit(module)
        if cycle:
            return cycle
    return None


def test_the_package_has_no_import_cycle():
    graph = package_imports()
    assert {"cli", "transform", "approximation", "tiling"} <= set(graph)
    assert "approximation" in graph["cli"] and "tiling" in graph["transform"]
    assert find_cycle(graph) is None, " -> ".join(find_cycle(graph))


def test_find_cycle_sees_a_lazy_import_cycle():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b"}, "b": set()}) is None
