"""Source-level checks on the package."""

import ast
import importlib
from pathlib import Path

import ugwldp

SOURCES = sorted(Path(ugwldp.__file__).parent.glob("*.py"))


def test_sources_found():
    assert any(path.name == "config_model.py" for path in SOURCES)


def test_no_assert_statements():
    # `python -O` strips assert statements, so a check written as one
    # silently stops running; library checks raise instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_bench_span_targets_resolve():
    # the traced bench run wraps each "module.func" of TARGETS by getattr on
    # ugwldp.<module>, so a deleted or renamed target breaks it
    spans = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    (targets,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(spans.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    ]
    assert targets
    missing = []
    for name in targets:
        module, func = name.split(".")
        if not hasattr(importlib.import_module(f"ugwldp.{module}"), func):
            missing.append(name)
    assert missing == []


def test_law_arithmetic_makes_no_type_test():
    # a law's mode fixes the type of its weights in NeighborhoodLaw.__init__,
    # so the arithmetic that reads them never asks a value for its type
    wanted = {
        "neighborhood.py": {"_sum_by_key", "_build_weights"},
        "ugw.py": {"_extend_block", "_block_weights"},
    }
    seen = set()
    calls = []
    for path in SOURCES:
        names = wanted.get(path.name, set())
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name in names:
                seen.add(node.name)
                calls += [
                    f"{node.name}:{call.lineno}"
                    for call in ast.walk(node)
                    if isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id in ("isinstance", "type")
                ]
    assert seen == set().union(*wanted.values())
    assert calls == []


def test_entropy_builds_no_marginal():
    # the entropy increments are drops of ugw_entropy along the truncation
    # tower, so the entropy module needs no one-step extension of a law
    (path,) = [path for path in SOURCES if path.name == "entropy.py"]
    text = path.read_text(encoding="utf-8")
    imports = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        imports += [f"{name}:{node.lineno}" for name in names if name.split(".")[-1] == "ugw"]
    assert imports == []
    assert "marginal_ugw" not in text


def test_bipartite_sampler_has_no_loop_of_its_own():
    # the alternating two-law tree is the two-color multi-type tree, so
    # sample_ugw_bipartite draws through sample_ugw_colored and holds no
    # sampling loop of its own
    (path,) = [path for path in SOURCES if path.name == "ugw.py"]
    (func,) = [
        node
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name == "sample_ugw_bipartite"
    ]
    loops = [
        f"{type(node).__name__}:{node.lineno}"
        for node in ast.walk(func)
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While, ast.comprehension))
    ]
    assert loops == []
    assert any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sample_ugw_colored"
        for node in ast.walk(func)
    )


def _ugw_functions(*names):
    (path,) = [path for path in SOURCES if path.name == "ugw.py"]
    module = ast.parse(path.read_text(encoding="utf-8"))
    funcs = {node.name: node for node in module.body if isinstance(node, ast.FunctionDef)}
    return [funcs[name] for name in names]


def _called(node):
    return [
        (getattr(call.func, "attr", getattr(call.func, "id", None)), call.lineno)
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and isinstance(call.func, (ast.Attribute, ast.Name))
    ]


def test_tree_samplers_write_their_adjacency_in_place():
    # every edge the tree samplers add hangs a new vertex from one already
    # placed, so their one growth loop, _grow, writes tree.adj directly: no
    # per-edge method call
    (grow,) = _ugw_functions("_grow")
    calls = [f"{name}:{line}" for name, line in _called(grow) if name in ("add_edge", "_ensure")]
    assert calls == []


def test_tree_samplers_share_one_growth_loop():
    # sample_ugw and sample_ugw_colored compile their tables into a plan and
    # hand it to _grow; neither holds a loop of its own
    for func in _ugw_functions("sample_ugw", "sample_ugw_colored"):
        loops = [
            f"{func.name}:{node.lineno}"
            for node in ast.walk(func)
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While))
        ]
        assert loops == []
        assert "_grow" in [name for name, _ in _called(func)]


def test_sample_ugw_looks_up_nothing_per_child():
    # each (item, carried type) pair's children are resolved to their draw
    # tables once per plan (_Plan.children), so no loop of _grow asks for a
    # child's types, its table or a table's draw
    (grow,) = _ugw_functions("_grow")
    loops = [node for node in ast.walk(grow) if isinstance(node, ast.For)]
    assert loops
    calls = [
        f"{name}:{line}"
        for loop in loops
        for name, line in _called(loop)
        if name in ("sides", "get", "branch", "draw", "child_types", "root_sides")
    ]
    assert calls == []


def test_short_cycle_intensity_enumerates_no_motif():
    # the intensity is tr(B^l)/(2l) over a color transfer matrix: no motif
    # is built, canonicalized or counted, and the motif family is gone
    (path,) = [path for path in SOURCES if path.name == "config_model.py"]
    module = ast.parse(path.read_text(encoding="utf-8"))
    defined = {node.name for node in module.body if isinstance(node, ast.FunctionDef)}
    assert "short_cycle_intensity" in defined and "cycle_family" not in defined
    (func,) = [
        node
        for node in module.body
        if isinstance(node, ast.FunctionDef) and node.name == "short_cycle_intensity"
    ]
    banned = {"_colored_canon", "canonical_labeling", "subgraph_count_expectation", "product"}
    calls = [
        f"{ast.unparse(node.func)}:{node.lineno}"
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in banned
    ]
    assert calls == []


def test_integer_parameters_have_one_check():
    # rooted._check_int is the only code that asks whether an integer
    # parameter is an int (a bool is not), and the checks it replaced are gone
    (rooted,) = [path for path in SOURCES if path.name == "rooted.py"]
    (check,) = [
        node
        for node in ast.parse(rooted.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and node.name == "_check_int"
    ]
    bool_tests = []
    defined = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                defined.add(node.name)
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and any(isinstance(n, ast.Name) and n.id == "bool" for n in ast.walk(node))
            ):
                bool_tests.append((path.name, node.lineno))
    inside = [
        (name, line)
        for name, line in bool_tests
        if name == "rooted.py" and check.lineno <= line <= check.end_lineno
    ]
    assert inside and bool_tests == inside
    assert not defined & {"_check_depth", "_check_law_depth", "_require_positive"}


def test_multigraph_readers_keep_one_format():
    # a Multigraph stores only its vertex-indexed adjacency (adj, loops), so
    # the cycle counters read it as stored: no weight dict `.w`, no
    # `.adjacency()` copy, and no per-vertex list of their own, neither a
    # comprehension nor a `[{}] * n` or `[0] * n` (the degree list `[d] * n`
    # of a DegreeSequence is no copy of the graph)
    wanted = {
        "experiments.py": {"cycle_counts", "concentrate_experiment"},
        "config_model.py": {"has_cycle_leq"},
    }
    seen = set()
    found = []
    for path in SOURCES:
        names = wanted.get(path.name, set())
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(func, ast.FunctionDef) and func.name in names):
                continue
            seen.add(func.name)
            for node in ast.walk(func):
                if isinstance(node, ast.Attribute) and node.attr in ("w", "adjacency"):
                    found.append(f"{func.name}:{node.lineno} .{node.attr}")
                elif isinstance(node, ast.ListComp) or (
                    isinstance(node, ast.BinOp)
                    and isinstance(node.op, ast.Mult)
                    and isinstance(node.left, ast.List)
                    and not any(isinstance(e, ast.Name) for e in node.left.elts)
                ):
                    found.append(f"{func.name}:{node.lineno} list")
    assert seen == set().union(*wanted.values())
    assert found == []


def test_configuration_samplers_share_one_pairing_loop():
    # sample_configuration and the rejection attempt of _simple_sample both
    # draw through _draw_pairs, which fills each color's list in one loop:
    # no generator in between, and no regrouping of the draws afterwards
    (path,) = [path for path in SOURCES if path.name == "config_model.py"]
    module = ast.parse(path.read_text(encoding="utf-8"))
    funcs = {node.name: node for node in module.body if isinstance(node, ast.FunctionDef)}
    assert not any(isinstance(node, (ast.Yield, ast.YieldFrom)) for node in ast.walk(module))
    assert not {"_pair_draws", "_configuration"} & set(funcs)
    for name in ("sample_configuration", "_simple_sample"):
        assert "_draw_pairs" in [called for called, _ in _called(funcs[name])]


def test_configurations_reach_graphs_through_graph_of():
    # a Configuration holds owner pairs, and graph_of is the one loop that
    # turns pairs into weights: no other function of config_model reaches
    # add_edge, and sample_G_Dh hands its accepted draws to graph_of whole
    (path,) = [path for path in SOURCES if path.name == "config_model.py"]
    module = ast.parse(path.read_text(encoding="utf-8"))
    funcs = {node.name: node for node in ast.walk(module) if isinstance(node, ast.FunctionDef)}
    users = {
        name
        for name, func in funcs.items()
        for node in ast.walk(func)
        if isinstance(node, ast.Attribute) and node.attr == "add_edge"
    }
    assert users == {"graph_of"}
    loops = (ast.For, ast.While, ast.comprehension)
    assert not any(isinstance(node, loops) for node in ast.walk(funcs["sample_G_Dh"]))
    assert "graph_of" in [called for called, _ in _called(funcs["sample_G_Dh"])]


def test_unreached_api_stays_out_of_the_library():
    # the half-edge pools, the induced ball of a realized graph and the
    # colored motif counter are test references now; the half-edge list
    # W_c is the brute-force oracle's alone
    gone = {
        "half_edge_pools",
        "ball_of",
        "subgraph_count_expectation",
        "automorphism_count",
        "_colored_canon",
        "_falling",
        "_falling_pairs",
        "_MessageTable",
    }
    defined = {
        (path.name, node.name)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert {name for _, name in defined} & gone == set()
    assert {path for path, name in defined if name == "half_edges"} == {"oracle.py"}
    assert not gone & set(dir(ugwldp))


def test_one_girth_layer_loop():
    # _short_cycle_at, with a floor and stamp lists, is the only BFS that
    # runs the girth layer rule: the least-vertex search and the exact ball
    # test call it, and neither the search nor ball_classes keeps a closure
    (rooted,) = [path for path in SOURCES if path.name == "rooted.py"]
    module = ast.parse(rooted.read_text(encoding="utf-8"))
    funcs = {node.name: node for node in module.body if isinstance(node, ast.FunctionDef)}
    for name in ("_least_cycle_vertices", "ball_classes"):
        nested = [
            f"{name}:{node.lineno}"
            for node in ast.walk(funcs[name])
            if node is not funcs[name]
            and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        ]
        assert nested == []
    defined = {
        node.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert not defined & {"cycle_above", "children_subtrees"}
    layer_tests = [
        (path.name, node.lineno)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Compare) and ast.unparse(node) == "2 * d + 1 <= g"
    ]
    girth = funcs["_short_cycle_at"]
    ((name, line),) = layer_tests
    assert name == "rooted.py" and girth.lineno <= line <= girth.end_lineno
