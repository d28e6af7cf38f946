"""Checks on the package source itself."""

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

import mfmckit

SOURCES = sorted(Path(mfmckit.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_the_package():
    # python -O strips assert; broken invariants raise InconsistencyError
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert SOURCES and found == []


def _names(tree):
    """Every name the tree reads: identifiers, attributes, imported names."""
    return Counter(
        node.id if isinstance(node, ast.Name)
        else node.attr if isinstance(node, ast.Attribute) else node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias)))


def test_every_top_level_definition_is_used():
    # a function or class that __init__.py does not export and no other
    # code in the package reads is dead: the tests alone keep it alive
    trees = [ast.parse(path.read_text(), str(path)) for path in SOURCES]
    read = sum((_names(tree) for tree in trees), Counter())
    unused = [f"{path.name}:{node.name}"
              for path, tree in zip(SOURCES, trees)
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and read[node.name] == _names(node)[node.name]]
    assert len(SOURCES) > 1 and unused == []


def test_every_module_level_import_is_read():
    # an imported name that the module never reads is left over from a
    # removed route; __init__.py imports only to export
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{alias.asname or alias.name}"
                   for node in tree.body
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"
                   for alias in node.names
                   if (alias.asname or alias.name).split(".")[0] not in read]
    assert len(SOURCES) > 1 and unused == []


def test_every_cap_is_documented():
    # every exponential loop has a named cap, and README.md names each one
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    caps = [f"{path.stem}.{target.id}"
            for path in SOURCES
            for node in ast.parse(path.read_text(), str(path)).body
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and target.id.endswith("_CAP")]
    missing = [cap for cap in caps if cap not in readme]
    assert len(caps) >= 8 and missing == []


def test_caps_are_module_constants_not_parameters():
    # each check reads its module's named cap; only packing_property keeps
    # a cap parameter, which carries --minor-cap, and SizeLimit.__init__
    # takes the cap it reports
    found = [f"{path.stem}.{node.name}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.FunctionDef)
             and any(isinstance(a, ast.arg) and a.arg in ("cap", "det_cap")
                     for a in ast.walk(node.args))]
    assert found == ["clutters.packing_property", "errors.__init__"]


def test_the_cli_parser_is_built_only_at_import():
    # main() reuses one parser built at import; a build_parser() call in a
    # function body would build it again on every call
    tree = ast.parse((Path(mfmckit.__file__).parent / "cli.py").read_text())

    def builds(node):
        return sum(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "build_parser"
                   for n in ast.walk(node))
    in_functions = sum(builds(node) for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
    assert builds(tree) == 1 and in_functions == 0


def test_decisions_build_the_rees_cone_only_in_analysis():
    # Analysis builds the Rees cone once, runs its pass and reads each fact
    # off it; a call of any of these elsewhere in decisions.py would build
    # the cone again or read a fact a second way
    tree = ast.parse((Path(mfmckit.__file__).parent / "decisions.py").read_text())
    builders = {"rees_cone", "support_hyperplanes", "hilbert_basis",
                "facet_normals", "basis_and_facets", "is_normal", "classify_facets",
                "least_fractional_vertex"}

    def builds(node):
        return sum(isinstance(n, ast.Call)
                   and getattr(n.func, "id", getattr(n.func, "attr", None)) in builders
                   for n in ast.walk(node))
    in_analysis = sum(builds(node) for node in tree.body
                      if isinstance(node, ast.ClassDef) and node.name == "Analysis")
    assert in_analysis > 0 and builds(tree) == in_analysis


def test_no_function_calls_itself():
    # every search runs as a loop: a self-calling function is bounded by
    # Python's recursion limit instead of its named cap, and a nested one is
    # a reference cycle left to the collector.  A call by bare name or
    # through self counts; super().__init__ is another class's method
    def callee(call):
        f = call.func
        if isinstance(f, ast.Attribute) and getattr(f.value, "id", None) == "self":
            return f.attr
        return getattr(f, "id", None)
    found = [f"{path.name}:{node.name}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.FunctionDef)
             and any(isinstance(call, ast.Call) and callee(call) == node.name
                     for call in ast.walk(node))]
    assert SOURCES and found == []


def test_the_cli_runs_without_dataclasses_or_inspect(tmp_path):
    # the records compile their own methods: importing dataclasses (and
    # with it inspect) cost the CLI's start-up a third of its import, and a
    # lazy import would only move that cost into the first job
    q6 = tmp_path / "q6.txt"
    q6.write_text("edge 1 2 3\nedge 1 4 5\nedge 2 4 6\nedge 3 5 6\n")
    code = "; ".join([
        f"import sys; sys.path.insert(0, {str(Path(mfmckit.__file__).parent.parent)!r})",
        "import mfmckit.cli",
        f"codes = [mfmckit.cli.main(['mfmc', {str(q6)!r}]),"
        " mfmckit.cli.main(['scan', '--max-vertices', '3', '--max-edges', '3'])]",
        "print(codes, sorted({'dataclasses', 'inspect'} & set(sys.modules)))",
    ])
    # -I -S: no site hooks, so every module loaded comes from this code;
    # -B: -I drops PYTHONDONTWRITEBYTECODE, and no __pycache__ is written
    run = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code],
                         capture_output=True, text=True, timeout=120)
    assert run.stderr == "" and run.stdout.splitlines()[-1] == "[0, 0] []"


def _called(node):
    """Names that node calls, bare or as an attribute."""
    return {getattr(n.func, "id", getattr(n.func, "attr", None))
            for n in ast.walk(node) if isinstance(n, ast.Call)}


def test_trusted_builders_wrap_only_the_package_s_own_output():
    # Record._trusted skips __post_init__, so only what the package built
    # may go through it: the antichain walk's rows (for the labelled
    # clutters and the class representatives), the Rees cone's
    # generators, minor's edges and the power searches' generators
    trusted = {"_trusted", "_trusted_clutter"}
    sites, graph = [], {}
    for path in SOURCES:
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.FunctionDef):
                defs = [(node.name, node)]
            elif isinstance(node, ast.ClassDef):
                defs = [(f"{node.name}.{m.name}", m)
                        for m in node.body if isinstance(m, ast.FunctionDef)]
                # calling a class runs its __post_init__ (or its own __init__)
                graph[node.name] = set().union(
                    *(_called(m) for _, m in defs if m.name in ("__init__", "__post_init__")))
            else:
                continue
            for name, fn in defs:
                graph.setdefault(fn.name, set()).update(_called(fn))
                if _called(fn) & trusted:
                    sites.append(f"{path.stem}.{name}")
    assert sorted(sites) == ["clutters._clutter_classes", "clutters._trusted_clutter",
                             "clutters.enumerate_clutters", "clutters.minor", "cones.rees_cone",
                             "ideals.closure_power", "ideals.symbolic_power"]
    # the parser and every checking constructor reach none of them, even
    # with every call of a name taken to reach each definition of it
    reached = set()
    todo = ["parse_input", "validate", "clutter_from_edges",
            *(name for name in graph if name[0].isupper())]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(graph.get(name, ()))
    assert "ExponentMatrix" in reached and "_check_antichain" in reached
    assert reached.isdisjoint(trusted | {s.split(".")[1] for s in sites})
