import dataclasses
import io
import itertools
import json

import numpy as np
import pytest

from diftgame import game, generate, ifg, learn, respond
from diftgame.errors import ParseError, Unreachable, ValidationError

from conftest import (grid_graph, oracle_advance, oracle_chain_states, oracle_decision_states,
                      oracle_entry_reachability, oracle_gen_edges, oracle_strong_components)


def chain(n=3, stages=((3,),), vulnerable=(1,)):
    return ifg.make_graph(n, [(i, i + 1) for i in range(1, n)], stages, vulnerable)


def test_source_successors_are_the_entries():
    g = ifg.make_graph(3, [(1, 3), (2, 3)], [[3]], vulnerable=[2, 1])
    assert g.successors[0] == g.vulnerable == (1, 2)
    assert all(u != 0 for u, _ in g.edges)
    rain = generate.gen_graph(30, 4, (2, 2, 2, 2), 1, 0.08, seed=3)
    assert rain.successors[0] == rain.vulnerable and len(rain.vulnerable) == 1


@pytest.mark.parametrize("vulnerable", [(), (9,), (0,)], ids=["empty", "unknown", "source"])
def test_solver_use_rejects_empty_or_unknown_entries(vulnerable):
    g = chain()
    bad = ifg.InformationFlowGraph(
        n=g.n, labels=g.labels, traffic=g.traffic, edges=g.edges,
        stages=g.stages, vulnerable=vulnerable, rule_relevance=g.rule_relevance,
    )
    assert {"empty-vulnerable", "unknown-vulnerable"} & _codes(bad)
    with pytest.raises(ValidationError):
        bad.successors
    with pytest.raises(ValidationError):
        game.AdversaryStrategy.uniform(bad)
    with pytest.raises(ValidationError):
        game.evaluate_exact(bad, game.default_params(g), game.DefenderStrategy.zeros(g),
                            game.AdversaryStrategy.uniform(g))


def test_validate_well_formed_graph_is_clean():
    assert ifg.validate(chain()) == []


def _codes(graph):
    return {v.code for v in ifg.validate(graph)}


def test_validate_flags_edge_into_source():
    g = chain()
    bad = ifg.InformationFlowGraph(
        n=g.n, labels=g.labels, traffic=g.traffic, edges=g.edges + ((2, 0),),
        stages=g.stages, vulnerable=g.vulnerable, rule_relevance=g.rule_relevance,
        fractional_traffic=g.fractional_traffic,
    )
    assert "edge-into-source" in _codes(bad)


def test_validate_flags_empty_stage():
    g = chain(stages=((3,), (), (2,)))
    violations = ifg.validate(g)
    assert any(v.code == "empty-stage" and "stage 2" in v.detail for v in violations)


def test_validate_flags_a_graph_without_stages_and_the_learner_names_it():
    # the learner names the missing stages rather than indexing an empty stage list
    g = ifg.make_graph(4, [(1, 2), (2, 3), (3, 4)], [], [1])
    assert [str(v) for v in ifg.validate(g)] == ["no-stages: the graph has no stages"]
    with pytest.raises(ValidationError, match="the graph has no stages"):
        learn.run(g, game.default_params(g), learn.LearnerConfig(max_iters=5))


def test_validate_flags_dangling_edge():
    g = chain()
    bad = ifg.InformationFlowGraph(
        n=g.n, labels=g.labels, traffic=g.traffic, edges=g.edges + ((2, 11),),
        stages=g.stages, vulnerable=g.vulnerable, rule_relevance=g.rule_relevance,
    )
    assert "dangling-edge" in _codes(bad)


def test_validate_flags_negative_traffic_and_bad_sum():
    g = ifg.make_graph(2, [(1, 2)], [[2]], [1], traffic=[-0.2, 0.5], fractional_traffic=True)
    codes = _codes(g)
    assert "negative-traffic" in codes
    assert "traffic-sum" in codes


def test_validate_flags_rule_out_of_range():
    g = ifg.make_graph(2, [(1, 2)], [[2]], [1], rule_relevance=[(1, 7), ()])
    assert "rule-out-of-range" in _codes(g)


def test_validate_flags_unknown_destination():
    g = chain(stages=((9,),))
    assert "unknown-destination" in _codes(g)


def test_validate_flags_empty_and_unknown_vulnerable():
    g = chain()
    empty = ifg.InformationFlowGraph(
        n=g.n, labels=g.labels, traffic=g.traffic, edges=g.edges,
        stages=g.stages, vulnerable=(), rule_relevance=g.rule_relevance,
    )
    assert "empty-vulnerable" in _codes(empty)
    unknown = ifg.InformationFlowGraph(
        n=g.n, labels=g.labels, traffic=g.traffic, edges=g.edges,
        stages=g.stages, vulnerable=(8,), rule_relevance=g.rule_relevance,
    )
    assert "unknown-vulnerable" in _codes(unknown)


def test_save_load_round_trip(tmp_path):
    g = ifg.make_graph(
        5, [(1, 2), (2, 3), (3, 4), (2, 5)], [[4], [5]], [1],
        traffic=[0.1, 0.3, 0.2, 0.25, 0.15], rule_relevance=[(1,), (1,), (1, 2), (), (1,)],
        fractional_traffic=True,
    )
    path = tmp_path / "g.json"
    ifg.save(g, path)
    assert ifg.load(path) == g


def _augmented_copy(graph, path, source_edges):
    """Save ``graph`` as a file marked augmented that lists ``source_edges`` too."""
    ifg.save(graph, path)
    raw = json.loads(path.read_text())
    assert raw["augmented"] is False
    raw["augmented"] = True
    raw["edges"] = [list(e) for e in source_edges] + raw["edges"]
    path.write_text(json.dumps(raw))


def test_saved_graphs_load_back_equal(tmp_path, rng):
    graphs = {
        "generated": generate.gen_graph(40, 3, (2, 1, 2), 2, 0.1, seed=5),
        "generated-single": generate.gen_graph(30, 1, 2, 3, 0.05, seed=2),
        "grid30": grid_graph(30, rng),
        "chain1000": ifg.make_graph(1000, [(i, i + 1) for i in range(1, 1000)], [[1000]], [1],
                                    traffic=rng.uniform(10, 40, 1000).tolist(),
                                    rule_relevance={}, fractional_traffic=False),
        "default-relevance": ifg.make_graph(6, [(1, 2), (2, 3), (3, 6), (1, 4), (4, 5)],
                                            [[3], [6]], [1]),
    }
    for name, g in graphs.items():
        path = tmp_path / f"{name}.json"
        ifg.save(g, path)
        assert ifg.load(path) == g, name
        raw = json.loads(path.read_text())
        del raw["rule_relevance"]  # a file without the field makes every rule relevant
        path.write_text(json.dumps(raw))
        assert ifg.load(path) == dataclasses.replace(g, rule_relevance=(tuple(range(1, g.n + 1)),) * g.n)


def test_load_of_unsorted_duplicate_lists_equals_make_graph(tmp_path):
    edges = [[3, 4], [1, 2], [3, 4], [2, 3], [1, 3], [2, 3]]
    stages = [[4, 3, 4], [2, 4]]
    vulnerable = [2, 1, 2]
    relevance = {"3": [2, 1, 2], "1": [4, 1], "4": [], "2": [3, 3]}
    nodes = [{"id": i, "label": f"n{i}", "traffic": 0.25} for i in (3, 1, 4, 2)]
    path = tmp_path / "hand.json"
    path.write_text(json.dumps({"nodes": nodes, "edges": edges, "stages": stages,
                                "vulnerable": vulnerable, "rule_relevance": relevance,
                                "fractional_traffic": True}))
    expected = ifg.make_graph(4, edges, stages, vulnerable, traffic=[0.25] * 4,
                              labels=["n1", "n2", "n3", "n4"],
                              rule_relevance={int(k): v for k, v in relevance.items()},
                              fractional_traffic=True)
    loaded = ifg.load(path)
    assert loaded == expected
    assert loaded.edges == ((1, 2), (1, 3), (2, 3), (3, 4))
    assert loaded.stages == ((3, 4), (2, 4)) and loaded.vulnerable == (1, 2)
    assert loaded.rule_relevance == ((1, 4), (3,), (1, 2), ())


def test_load_augmented_file_equals_plain_graph(tmp_path):
    g = ifg.make_graph(4, [(1, 3), (2, 3), (3, 4)], [[4]], [1, 2])
    path = tmp_path / "aug.json"
    _augmented_copy(g, path, [(0, 2), (0, 1), (0, 1)])
    loaded = ifg.load(path)
    assert loaded == g
    assert loaded.successors == g.successors
    resaved = tmp_path / "plain.json"
    ifg.save(loaded, resaved)
    assert json.loads(resaved.read_text())["augmented"] is False


@pytest.mark.parametrize("source_edges", [
    [(0, 1)], [(0, 1), (0, 2), (0, 3)], [(0, 1), (0, 3)], [],
], ids=["missing", "extra", "wrong", "none"])
def test_load_rejects_mismatched_source_edges(tmp_path, source_edges):
    g = ifg.make_graph(4, [(1, 3), (2, 3), (3, 4)], [[4]], [1, 2])
    path = tmp_path / "aug.json"
    _augmented_copy(g, path, source_edges)
    with pytest.raises(ParseError) as exc:
        ifg.load(path)
    assert exc.value.field == "edges"


def test_load_collapses_duplicate_ids(tmp_path):
    g = ifg.make_graph(5, [(1, 2), (2, 3), (3, 4), (2, 5)], [[4], [5]], [1, 2],
                       rule_relevance=[(1,), (1,), (1, 2), (), (1,)])
    path, dup = tmp_path / "g.json", tmp_path / "dup.json"
    ifg.save(g, path)
    raw = json.loads(path.read_text())
    raw["rule_relevance"]["2"] = [1, 1]
    raw["vulnerable"] = [2, 1, 1]
    raw["edges"].append([1, 2])
    raw["stages"][0] = [4, 4]
    dup.write_text(json.dumps(raw))
    loaded = ifg.load(dup)
    assert loaded == ifg.load(path) == g
    # a rule listed twice must not be multiplied in twice
    assert game.DefenderStrategy.full(loaded, 0.5).detection_vector(loaded)[2] == 0.125


def test_load_malformed_stage_names_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"nodes": [{"id": 1}], "edges": [], "stages": [[1], "oops"], "vulnerable": [1]}'
    )
    with pytest.raises(ParseError) as err:
        ifg.load(path)
    assert "stages" in str(err.value)


def test_load_rejects_non_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json {")
    with pytest.raises(ParseError):
        ifg.load(path)


def test_load_requires_contiguous_ids(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"nodes": [{"id": 1}, {"id": 3}], "edges": [], "stages": [[1]], "vulnerable": [1]}'
    )
    with pytest.raises(ParseError) as err:
        ifg.load(path)
    assert "id" in str(err.value)


def test_generator_output_loads_clean(tmp_path, rng):
    for seed in range(3):
        g = generate.gen_graph(12, 2, (2, 1), 2, 0.1, seed=seed)
        assert ifg.validate(g) == []
        path = tmp_path / f"gen{seed}.json"
        ifg.save(g, path)
        loaded = ifg.load(path)
        assert loaded == g
        assert ifg.validate(loaded) == []


# ---------------------------------------------------------------------------
# the JSON writer and the generator's edge draw
# ---------------------------------------------------------------------------


def _json_dump_text(payload) -> str:
    """What ``json.dump(indent=1, sort_keys=True)`` writes, arrays as their ``tolist()``."""
    fh = io.StringIO()
    json.dump(payload, fh, indent=1, sort_keys=True, default=np.ndarray.tolist)
    return fh.getvalue() + "\n"


def _writer_payloads(rng):
    edge_rows = np.zeros((6, 5))
    edge_rows[1] = [-0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1.0]
    edge_rows[3] = edge_rows[1]  # a repeated non-zero row
    edge_rows[4] = [0.1, 1 / 3, 2.0 ** -1074 * 3, 1e300, -1.5e-7]
    edge_rows[5, 0] = -0.0  # differs from an all-zero row only in its sign bit
    scales = 10.0 ** rng.integers(-300, 300, size=(7, 9))
    return [
        {"kind": "defender", "n": 5, "probs": edge_rows},
        {"dense": rng.random((11, 13)), "scaled": rng.standard_normal((7, 9)) * scales},
        {"nonfinite": np.array([[np.nan, np.inf], [-np.inf, 0.5]])},
        {"no rows": np.zeros((0, 4)), "empty rows": np.zeros((3, 0)), "m": np.ones((1, 1))},
        {
            "nested": {"z": [1, 2, {"y": None, "x": [[], {}]}], "b": [], "a": {}},
            "flags": [True, False, None],
            "ints": [0, -3, 2 ** 70],
            "floats": [0.1, -0.0, 1e-300, 5e-324],
            "text": 'tab\there "quoted" back\\slash \u00e9 \u2603 \U0001f600 new\nline \x00',
            "\u043a\u043b\u044e\u0447 \"k\"": "non-ASCII key",
            "matrix": rng.random((3, 2)),
        },
        {},
        {"only": "scalar"},
        *_fast_path_payloads(rng),
    ]


def _fast_path_payloads(rng):
    """Payloads that reach each fast path of the writer, or one of its fallbacks."""
    sparse = np.zeros((6, 40))
    sparse[1, [0, 7, 39]] = [-0.0, np.nan, 5e-324]
    sparse[2, [3, 4]] = [np.inf, -np.inf]
    sparse[3] = -0.0  # live in every cell, though each equals 0.0
    sparse[4] = rng.random(40)  # fully dense
    sparse[5, 12] = 2.5
    finite = np.where(rng.random((8, 30)) < 0.1, rng.random((8, 30)), 0.0)
    finite[2] = rng.random(30)
    separators = ['a, "b', "], [", "}, {", 'q\\"', "\u00fc, ", ", ", "x, ", ": ", "\u2603"]
    return [
        {"sparse": sparse, "finite sparse": finite},
        {
            "int matrix": np.arange(12).reshape(3, 4) * (np.arange(4) % 2),
            "uint8 matrix": np.array([[0, 255], [0, 0]], dtype=np.uint8),
            "float32 matrix": np.array([[0.1, 0.0], [0.0, -0.0]], dtype=np.float32),
            "bool matrix": np.array([[True, False]]),
            "zero rows": np.zeros((0, 3), dtype=int),
            "zero width": np.zeros((2, 0), dtype=int),
            "empty": np.zeros((0, 0)),
            "vector": np.array([1.5, -0.0, 3.0]),
            "scalar array": np.array(2.5),
        },
        {
            "strings": separators,
            "string dict": {s: s for s in separators},
            "safe strings": ["graph.json", "defender.json"],
            "keys": {'k, "': 1, "], [": [1, 2], "}, {": {"a": 1}, "\u043a, ": None},
            "number lists": [[1, 2.5], [], [True, None, -0.0]],
            "one empty list": [[]],
            "lists with strings": [["a", 1], ["b, ", 2]],
            "flat dicts": [{"b": 1, "a": "x"}, {}, {"c": 2.0, "d": None, "e": True}],
            "flat dicts with separators": [{"k, ": "v"}, {"a": "b, "}, {"c": "}, {"}],
            "dict of lists": {"2": [1, 3], "10": [], "1": [2]},
            "dict of dicts": {"0": {"1": {"2": 0.5, "drop": 0.5}}, "1": {}, "2": {"x": {}}},
            "mixed": [1, 2.5, True, False, None, 2 ** 70, -(2 ** 70), "s", np.float64(1 / 3)],
            "np floats": [np.float64(0.1), np.float64(-0.0)],
            "np dict": {"x": np.float64(1 / 3), "y": [np.float64(2.0)]},
            "tuples": (3, (1, 2), ()),
            "tuple of tuples": ((1, 2), (3, 4)),
            "nested arrays": [np.array([1, 2]), {"m": np.eye(2)}],
            "deep": [[[1, [2]], {"a": [{"b": [3]}]}]],
            "floats": [float("nan"), float("inf"), -float("inf"), 1e16, 1.5e-7, 5e-324],
        },
        {2: "a", 10: "b", -1: "c"},
        {None: [1, 2]},
        {True: {"a": 1}, False: [0]},
        {1.5: "x", 0.25: "y", float("inf"): "z"},
        {"outer": {3: [1], 20: {"k": 2}}},
    ]


def test_write_json_matches_json_dump_bytes(tmp_path, rng):
    for i, payload in enumerate(_writer_payloads(rng)):
        path = tmp_path / f"p{i}.json"
        ifg.write_json(payload, path)
        assert path.read_bytes() == _json_dump_text(payload).encode("utf-8"), i


@pytest.mark.parametrize("payload", [{"x": object()}, {"x": [np.int64(1)]}, {(1, 2): 0}],
                         ids=["object", "numpy-int", "tuple-key"])
def test_write_json_rejects_what_json_rejects(tmp_path, payload):
    with pytest.raises(TypeError):
        _json_dump_text(payload)
    with pytest.raises(TypeError):
        ifg.write_json(payload, tmp_path / "p.json")


def test_save_defender_round_trip_is_exact(tmp_path, rng):
    g = generate.gen_graph(30, 1, 2, 2, 0.1, seed=3)
    probs = rng.random((g.n + 1, g.n + 2))
    probs[0] = 0.0
    probs[rng.random(probs.shape) < 0.5] = 0.0  # many repeated values and rows
    probs[5:9] = 0.0
    probs[7, 3] = 1.0
    for strategy in (game.DefenderStrategy(probs), game.DefenderStrategy.zeros(g)):
        path = tmp_path / "d.json"
        game.save_defender(strategy, path)
        loaded = game.load_strategy(path)
        assert loaded.probs.tobytes() == strategy.probs.tobytes()
        assert path.read_text(encoding="utf-8") == _json_dump_text(
            {"kind": "defender", "n": strategy.n, "probs": strategy.probs})


def test_load_defender_with_integer_probabilities(tmp_path):
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"kind": "defender", "n": 1, "probs": [[0, 0, 0], [1, 0.5, 0]]}))
    loaded = game.load_strategy(path)
    assert loaded.probs.dtype == float
    assert loaded.probs.tolist() == [[0.0, 0.0, 0.0], [1.0, 0.5, 0.0]]


@pytest.mark.parametrize("density", [0.0, 0.05, 1.0])
@pytest.mark.parametrize("n", [2, 3, 30, 100, 1000])
def test_random_edges_match_the_scalar_loop(n, density):
    seed = 7 * n + int(100 * density)
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    edges = generate.random_edges(fast, n, density)
    expected = oracle_gen_edges(slow, n, density)
    assert all(a == b for a, b in itertools.zip_longest(expected, edges))
    assert fast.bit_generator.state == slow.bit_generator.state
    assert fast.random() == slow.random()


def test_export_dot_no_edges():
    g = ifg.make_graph(2, [], [[2]], [1])
    text = ifg.export_dot(g)
    assert "->" not in text
    assert text.count("[") == 2  # one statement per node


def test_export_dot_chain_edge_count():
    text = ifg.export_dot(chain())
    assert text.count("->") == 2


def test_export_dot_marks_destinations_and_entries():
    text = ifg.export_dot(chain())
    assert "D1" in text
    assert "peripheries=3" in text


def test_export_dot_node_statement_count_on_generated_graph():
    g = generate.gen_graph(30, 4, (2, 2, 2, 2), 1, 0.08, seed=3)
    text = ifg.export_dot(g)
    assert sum(1 for line in text.splitlines() if "[" in line and "->" not in line) == 30


def test_export_dot_deterministic():
    g = generate.gen_graph(10, 2, (1, 1), 1, 0.2, seed=1)
    assert ifg.export_dot(g) == ifg.export_dot(g)


def test_relevance_defaults_to_all_rules():
    g = ifg.make_graph(3, [(1, 2)], [[2]], [1])
    assert g.relevance(2) == (1, 2, 3)


@pytest.mark.parametrize("edges", [[(1, 2, 3)], [(1,)], [(1, 2), np.array([2, 3, 1])]],
                         ids=["triple", "single", "numpy-triple"])
def test_make_graph_rejects_edges_that_are_not_pairs(edges):
    with pytest.raises(ValidationError):
        ifg.make_graph(3, edges, [[3]], [1])


def test_make_graph_converts_edge_ends_to_int():
    g = ifg.make_graph(3, [np.array([2, 3]), (1.0, 2), (True, 3)], [[np.int64(3)]], [np.int64(1)])
    assert g.edges == ((1, 2), (1, 3), (2, 3))
    assert all(type(v) is int for v in (*itertools.chain.from_iterable(g.edges), *g.stages[0],
                                        *g.vulnerable))


def test_entry_reachability_includes_entry_itself():
    g = chain()
    reach = ifg.entry_reachability(g)
    assert reach == ((1,), (1,), (1,))


def test_entry_reachability_matches_one_search_per_entry():
    # random graphs with cycles, self-loops, unreachable nodes and several
    # entries, and a bidirectional grid, which is one strongly connected component
    rng = np.random.default_rng(11)
    graphs = []
    for _ in range(200):
        n = int(rng.integers(1, 40))
        m = int(rng.integers(0, 3 * n + 1))
        edges = [(int(u), int(v)) for u, v in rng.integers(1, n + 1, (m, 2))]
        entries = rng.integers(1, n + 1, int(rng.integers(1, 6))).tolist()
        graphs.append(ifg.make_graph(n, edges, [[n]], entries))
    k = 12
    right = [(u, u + 1) for u in range(1, k * k) if u % k]
    down = [(u, u + k) for u in range(1, k * k - k + 1)]
    edges = right + down + [(v, u) for u, v in right + down]
    graphs.append(ifg.make_graph(k * k, edges, [[k * k]], range(1, k * k, k)))
    for g in graphs:
        assert ifg.entry_reachability(g) == oracle_entry_reachability(g)


def test_strong_components_match_mutual_reachability():
    # random digraphs with self-loops, duplicate roots, no roots at all, and
    # vertices no root reaches
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        adj = rng.random((n, n)) < rng.uniform(0.02, 0.3)
        succ = [np.flatnonzero(row).tolist() for row in adj]
        roots = rng.integers(0, n, int(rng.integers(0, 4))).tolist()
        comp = ifg.strong_components(succ, roots)
        classes = oracle_strong_components(succ, roots)
        assert [c < 0 for c in comp] == [cls is None for cls in classes]
        assert sorted(set(comp) - {-1}) == list(range(max(comp) + 1))
        for v, cls in enumerate(classes):
            if cls is not None:
                assert {w for w in range(n) if comp[w] == comp[v]} == cls
                # reverse topological numbering: every edge leads to an equal or lower number
                assert all(comp[w] <= comp[v] for w in succ[v])


def test_strong_components_on_a_long_chain_and_cycle():
    # 5000 vertices in one path would pass the recursion limit of a recursive Tarjan
    n = 5000
    chain_succ = [[v + 1] for v in range(n - 1)] + [[]]
    assert ifg.strong_components(chain_succ, [0]) == list(range(n - 1, -1, -1))
    assert ifg.strong_components(chain_succ, [n - 2]) == [-1] * (n - 2) + [1, 0]
    cycle_succ = chain_succ[:-1] + [[0]]
    assert ifg.strong_components(cycle_succ, [n // 2]) == [0] * n


def test_advance_cascades_through_overlapping_stages():
    g = ifg.make_graph(3, [(1, 2), (2, 3)], [[2], [2, 3]], [1])
    assert g.advance(2, 1) == 3  # node 2 is a destination of stages 1 and 2
    assert g.advance(3, 1) == 1
    assert g.advance(3, 2) == 3


def test_advance_rejects_a_state_outside_the_graph():
    g = ifg.make_graph(3, [(1, 2), (2, 3)], [[2], [2, 3]], [1])
    assert (g.advance(0, 1), g.advance(3, 3), g.advance(1, 3)) == (1, 3, 3)
    for node, stage in [(-1, 1), (4, 1), (1, 0), (1, 4)]:
        with pytest.raises(ValidationError, match=rf"state \({node}, {stage}\) lies outside"):
            g.advance(node, stage)


@pytest.mark.parametrize("dest", [-1, 4], ids=["negative", "past-n"])
def test_solvers_reject_a_destination_that_is_not_a_node(dest):
    # numpy would read -1 as node n and n + 1 past the table's end; the
    # landing table names the destination as validate does instead
    g = ifg.make_graph(3, [(1, 2), (2, 3)], [[dest]], [1])
    assert [v.code for v in ifg.validate(g)] == ["unknown-destination"]
    params = game.default_params(g)
    defender = game.DefenderStrategy.zeros(g)
    adversary = game.AdversaryStrategy({(0, 1): {1: 1.0}, (1, 1): {2: 1.0}, (2, 1): {3: 1.0},
                                        (3, 1): {game.DROP: 1.0}})
    message = f"stage 1 destination {dest} is not a real node"
    with pytest.raises(ValidationError, match=message):
        game.evaluate_exact(g, params, defender, adversary)
    with pytest.raises(ValidationError, match=message):
        game.evaluate_monte_carlo(g, params, defender, adversary, 10, seed=0)
    with pytest.raises(ValidationError, match=message):
        learn.run(g, params, learn.LearnerConfig(max_iters=5))
    with pytest.raises(ValidationError, match=message):
        respond.adversary_best_response(g, params, defender)


def test_evaluators_name_the_start_state_of_an_empty_adversary_on_a_stageless_graph():
    # with no stages the table is empty; both evaluators name (s0, 1) and the
    # best response finds no destination instead of indexing it
    g = ifg.make_graph(3, [(1, 2), (2, 3)], [], [1])
    params = game.default_params(g)
    defender, adversary = game.DefenderStrategy.zeros(g), game.AdversaryStrategy({})
    message = "adversary strategy has no distribution for node 0 at stage 1"
    with pytest.raises(ValidationError, match=message):
        game.evaluate_exact(g, params, defender, adversary)
    with pytest.raises(ValidationError, match=message):
        game.evaluate_monte_carlo(g, params, defender, adversary, 10, seed=0)
    with pytest.raises(Unreachable):
        respond.adversary_best_response(g, params, defender)


def test_graph_building_and_file_io_leave_the_landing_table_unbuilt(tmp_path):
    g = generate.gen_graph(12, 2, (1, 1), 1, 0.2, seed=1)
    ifg.save(g, tmp_path / "graph.json")
    loaded = ifg.load(tmp_path / "graph.json")
    assert loaded == g
    assert "landing" not in g.__dict__ and "landing" not in loaded.__dict__


def random_overlapping_graph(rng, m):
    """A random cyclic graph whose destination sets overlap; with three or
    more stages its first entry ends stages 1 and 3 but not stage 2."""
    n = int(rng.integers(4, 11))
    edges = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)
             if u != v and rng.random() < 0.3]
    entries = sorted({int(e) for e in rng.integers(1, n + 1, size=2)})
    stages = [set(rng.integers(1, n + 1, size=int(rng.integers(1, 4))).tolist()) for _ in range(m)]
    if m >= 3:
        stages[0].add(entries[0])
        stages[2].add(entries[0])
        stages[1] = (stages[1] - {entries[0]}) or {entries[0] % n + 1}
    return ifg.make_graph(n, edges, stages, entries)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_state_codes_agree_with_the_cascade_oracle(m):
    rng = np.random.default_rng(4400 + m)
    for _ in range(30):
        g = random_overlapping_graph(rng, m)
        if m >= 3:
            e = g.vulnerable[0]
            assert e in g.stages[0] and e not in g.stages[1] and e in g.stages[2]
        for v in range(g.n + 1):
            for j in range(1, m + 1):
                stage = oracle_advance(g, v, j)
                assert g.landing[v * m + j - 1] == (v * m + stage - 1 if stage <= m else -1)
                assert g.advance(v, j) == stage
            assert g.advance(v, m + 1) == m + 1
        states = oracle_decision_states(g)
        assert game.AdversaryStrategy.decision_states(g) == states
        roster = learn.PlayerRoster(g)
        assert all(roster.move_index[(v, j)] == v * m + j - 1 - m
                   for v in range(1, g.n + 1) for j in range(1, m + 1))
        # random moves, some at probability zero, over the oracle's states
        moves = {}
        for v, j in states:
            actions = list(g.successors[v]) + [game.DROP]
            w = rng.dirichlet(np.ones(len(actions))) * (rng.random(len(actions)) > 0.3)
            if w.sum() == 0.0:
                w[-1] = 1.0
            moves[(v, j)] = dict(zip(actions, (w / w.sum()).tolist()))
        for adversary in (game.AdversaryStrategy(moves), game.AdversaryStrategy.uniform(g)):
            assert game.AbsorbingChain(g, adversary).states == oracle_chain_states(g, adversary)
