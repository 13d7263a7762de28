"""Information flow graph: data model, validation, file I/O.

Nodes are integers 1..n; index 0 is reserved for the pseudo-source s0, whose
out-neighbors are exactly the vulnerable entry set.  The pseudo-source is
implicit: ``successors[0]`` is the entry set and ``edges`` holds only edges
between real nodes.  Each real node
carries a label, a traffic weight (the fraction of system flows passing
through it), and the set of security-rule indices that are meaningful at it.
Stage j of an attack is characterized by a destination set; destination sets
may overlap across stages and the graph may contain cycles.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParseError, ValidationError

SOURCE = 0  # reserved id of the pseudo-source node


@dataclass(frozen=True)
class Violation:
    """One failed structural invariant, identified by a stable code."""

    code: str
    detail: str

    def __str__(self):
        return f"{self.code}: {self.detail}"


@dataclass(eq=True)
class InformationFlowGraph:
    """Directed graph of processes/objects with staged attack destinations.

    Treat instances as immutable: derived accessors are cached, and all
    transformations, such as the generators, return new values.

    Fields
    ------
    n:              number of real nodes; ids are 1..n
    labels:         labels[i-1] labels node i
    traffic:        traffic[i-1] is the average traffic weight B of node i
    edges:          sorted ordered pairs (u, v) of real nodes
    stages:         destination sets D_1..D_M, each a sorted tuple of node ids
    vulnerable:     entry set, sorted tuple of node ids
    rule_relevance: rule_relevance[i-1] lists the rule indices (1..n) whose
                    check is meaningful at node i
    fractional_traffic: when True, validation requires traffic to sum to 1
    """

    n: int
    labels: tuple[str, ...]
    traffic: tuple[float, ...]
    edges: tuple[tuple[int, int], ...]
    stages: tuple[tuple[int, ...], ...]
    vulnerable: tuple[int, ...]
    rule_relevance: tuple[tuple[int, ...], ...]
    fractional_traffic: bool = False

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    @cached_property
    def successors(self) -> dict[int, tuple[int, ...]]:
        """Out-neighbors per node id 0..n, sorted; the pseudo-source's are the entries.

        Raises ValidationError as ``check_entries`` does.
        """
        self.check_entries()
        out: dict[int, list[int]] = {i: [] for i in range(1, self.n + 1)}
        for u, v in self.edges:
            out[u].append(v)
        return {SOURCE: self.vulnerable, **{u: tuple(sorted(vs)) for u, vs in out.items()}}

    def check_entries(self) -> None:
        """Raise ValidationError unless the entry set, s0's out-neighbors, is
        non-empty and within 1..n; every solver checks this before it starts."""
        if not self.vulnerable:
            raise ValidationError("the vulnerable entry set is empty")
        for v in self.vulnerable:
            if not 1 <= v <= self.n:
                raise ValidationError(f"entry node {v} is not a real node")

    @cached_property
    def stage_membership(self) -> dict[int, tuple[int, ...]]:
        """Node id -> sorted stage indices (1-based) whose destination set contains it."""
        member: dict[int, list[int]] = {}
        for j, dest in enumerate(self.stages, start=1):
            for d in dest:
                member.setdefault(d, []).append(j)
        return {d: tuple(js) for d, js in member.items()}

    @cached_property
    def defender_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """Every defender cell of the real nodes, as (node, column) arrays.

        Node-major: node i owns its tag (column 0), its trap (column 1) and
        column 1 + r for each relevant rule r, in ``relevance`` order.  A
        flow is detected at a node only when all of its cells fire together.
        """
        sizes = np.array([2 + len(r) for r in self.rule_relevance], dtype=np.intp)
        nodes = np.repeat(np.arange(1, self.n + 1), sizes)
        tags = np.cumsum(sizes) - sizes
        is_rule = np.ones(nodes.size, dtype=bool)
        is_rule[tags] = is_rule[tags + 1] = False
        rules = np.fromiter(itertools.chain.from_iterable(self.rule_relevance), dtype=np.intp,
                            count=nodes.size - 2 * self.n)
        rules += 1
        columns = np.zeros(nodes.size, dtype=np.intp)
        columns[tags + 1] = 1
        columns[is_rule] = rules
        nodes.setflags(write=False)
        columns.setflags(write=False)
        return nodes, columns

    @cached_property
    def advance_table(self) -> np.ndarray:
        """``advance(v, j)`` at row v, column j, for node ids 0..n and stages 1..M.

        Column 0 is unused and holds 0.
        """
        m = self.n_stages
        table = np.zeros((self.n + 1, m + 1), dtype=np.int64)
        for v in range(self.n + 1):
            for j in range(1, m + 1):
                table[v, j] = self.advance(v, j)
        table.setflags(write=False)
        return table

    def relevance(self, node: int) -> tuple[int, ...]:
        """Rule indices meaningful at ``node``; empty for the pseudo-source."""
        if node == SOURCE:
            return ()
        return self.rule_relevance[node - 1]

    def advance(self, node: int, stage: int) -> int:
        """Stage in effect after all forced destination crossings at ``node``.

        Arriving at a stage-j destination while in stage j advances to j+1,
        cascading when destination sets overlap.  Returns n_stages + 1 when
        every stage has been completed.
        """
        m = self.n_stages
        js = self.stage_membership.get(node, ())
        while stage <= m and stage in js:
            stage += 1
        return stage


def make_graph(
    n: int,
    edges,
    stages,
    vulnerable,
    traffic=None,
    labels=None,
    rule_relevance=None,
    fractional_traffic=None,
) -> InformationFlowGraph:
    """Build a graph, applying the documented defaults.

    Defaults: labels "s1".."sN"; uniform traffic 1/n with the fractional flag
    set; rule relevance {1..n} at every node when omitted.
    """
    if n <= 0:
        raise ValidationError(f"graph needs at least one node, got n={n}")
    if traffic is None:
        traffic = (1.0 / n,) * n
        if fractional_traffic is None:
            fractional_traffic = True
    if fractional_traffic is None:
        fractional_traffic = False
    if labels is None:
        labels = tuple(f"s{i}" for i in range(1, n + 1))
    if rule_relevance is None:
        relevance = (tuple(range(1, n + 1)),) * n
    elif isinstance(rule_relevance, dict):
        relevance = tuple(tuple(sorted(set(rule_relevance.get(i, ())))) for i in range(1, n + 1))
    else:
        relevance = tuple(tuple(sorted(set(r))) for r in rule_relevance)
        if len(relevance) != n:
            raise ValidationError("rule_relevance must list one rule set per node")
    return InformationFlowGraph(
        n=n,
        labels=tuple(labels),
        traffic=tuple(float(b) for b in traffic),
        edges=tuple(sorted({(int(u), int(v)) for u, v in edges})),
        stages=tuple(tuple(sorted(set(int(d) for d in dest))) for dest in stages),
        vulnerable=tuple(sorted(set(int(v) for v in vulnerable))),
        rule_relevance=relevance,
        fractional_traffic=bool(fractional_traffic),
    )


def validate(graph: InformationFlowGraph) -> list[Violation]:
    """Collect every violated invariant; an empty list means the graph is valid."""
    out: list[Violation] = []
    n = graph.n
    known = set(range(1, n + 1))

    if len(graph.labels) != n:
        out.append(Violation("label-count", f"{len(graph.labels)} labels for {n} nodes"))
    if len(graph.traffic) != n:
        out.append(Violation("traffic-count", f"{len(graph.traffic)} weights for {n} nodes"))
    if len(graph.rule_relevance) != n:
        out.append(Violation("relevance-count", f"{len(graph.rule_relevance)} rule sets for {n} nodes"))

    for u, v in graph.edges:
        if u not in known or v not in known:
            out.append(Violation("dangling-edge", f"edge ({u}, {v}) references an unknown node"))
        if v == SOURCE:
            out.append(Violation("edge-into-source", f"edge ({u}, {v}) enters the pseudo-source"))

    for j, dest in enumerate(graph.stages, start=1):
        if not dest:
            out.append(Violation("empty-stage", f"destination set of stage {j} is empty"))
        for d in dest:
            if d not in known:
                out.append(Violation("unknown-destination", f"stage {j} destination {d} is not a real node"))

    if not graph.vulnerable:
        out.append(Violation("empty-vulnerable", "the vulnerable entry set is empty"))
    for v in graph.vulnerable:
        if v not in known:
            out.append(Violation("unknown-vulnerable", f"entry node {v} is not a real node"))

    for i, b in enumerate(graph.traffic, start=1):
        if b < 0:
            out.append(Violation("negative-traffic", f"node {i} has traffic weight {b} < 0"))
    if graph.fractional_traffic and graph.traffic:
        total = sum(graph.traffic)
        if abs(total - 1.0) > 1e-9:
            out.append(Violation("traffic-sum", f"traffic weights sum to {total!r}, expected 1"))

    for i, rel in enumerate(graph.rule_relevance, start=1):
        for r in rel:
            if not 1 <= r <= n:
                out.append(Violation("rule-out-of-range", f"node {i} lists rule {r} outside 1..{n}"))
    return out


def ensure_augmented(graph: InformationFlowGraph) -> InformationFlowGraph:
    """Return ``graph`` itself.

    Every graph already has the pseudo-source: ``successors[0]`` is its
    entry set.  The name stays for callers outside the package that use it.
    """
    return graph


# ---------------------------------------------------------------------------
# file format
#
# A graph file is a single JSON document:
#   {
#     "nodes": [{"id": 1, "label": "s1", "traffic": 0.25}, ...],
#     "edges": [[1, 2], ...],
#     "stages": [[3], [5, 6]],
#     "vulnerable": [1],
#     "rule_relevance": {"1": [1], "2": [1, 2]},   # optional, default all rules
#     "fractional_traffic": true,                  # optional, default false
#     "augmented": false                           # optional, default false
#   }
# Node ids must be exactly 1..n.  Ids are JSON integers, written as decimal
# strings only as object keys; duplicate ids collapse as in make_graph.  The
# pseudo-source is implicit and "augmented" is always written false.  A file
# marked "augmented": true may also list the source edges [0, e]; they must
# go to exactly the entry set and are dropped on load.
# ---------------------------------------------------------------------------


def save(graph: InformationFlowGraph, path) -> None:
    payload = {
        "nodes": [
            {"id": i, "label": graph.labels[i - 1], "traffic": graph.traffic[i - 1]}
            for i in range(1, graph.n + 1)
        ],
        "edges": [list(e) for e in graph.edges],
        "stages": [list(dest) for dest in graph.stages],
        "vulnerable": list(graph.vulnerable),
        "rule_relevance": {str(i): list(graph.rule_relevance[i - 1]) for i in range(1, graph.n + 1)},
        "fractional_traffic": graph.fractional_traffic,
        "augmented": False,
    }
    write_json(payload, path)


def write_json(payload: dict, path) -> None:
    """Write ``payload`` as indented, key-sorted JSON ending in a newline.

    The bytes are those of ``json.dump(payload, fh, indent=1, sort_keys=True)``
    followed by a newline, where a 2-D ``np.ndarray`` value counts as its
    ``tolist()``.  Such a matrix is written row by row: each row's items are
    the text of ``json``'s C encoder (``float.__repr__`` for finite floats),
    and each distinct row (by ``tobytes``, so ``-0.0`` stays apart from
    ``0.0``) is encoded once, because a defender matrix is mostly identical
    all-zero rows.  Every other value goes through ``json.dumps`` and is
    indented one more level, which is safe because JSON text never holds a
    raw newline inside a string.  The text is written as chunks, never as
    one whole-file string.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_json_chunks(payload))


def _json_chunks(payload: dict):
    sep = "{\n"
    for key in sorted(payload):
        yield f"{sep} {json.dumps(key)}: "
        value = payload[key]
        if isinstance(value, np.ndarray) and value.ndim == 2:
            yield from _matrix_chunks(value)
        else:
            yield json.dumps(value, indent=1, sort_keys=True).replace("\n", "\n ")
        sep = ",\n"
    yield "\n}\n" if payload else "{}\n"


def _matrix_chunks(matrix: np.ndarray):
    """The ``indent=1`` text of ``matrix.tolist()`` as a value of a top-level key."""
    texts: dict[bytes, str] = {}
    sep = "[\n  "
    for row in matrix:
        key = row.tobytes()
        text = texts.get(key)
        if text is None:
            items = json.dumps(row.tolist())[1:-1].replace(", ", ",\n   ")
            text = texts[key] = f"[\n   {items}\n  ]" if items else "[]"
        yield sep
        yield text
        sep = ",\n  "
    yield "\n ]" if len(matrix) else "[]"


def read_json(path) -> dict:
    """Parse the JSON file at ``path``, which must hold one JSON object."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except ValueError as exc:  # malformed JSON or text that is not UTF-8
        raise ParseError(f"not valid JSON: {exc}", path=path) from exc
    if not isinstance(raw, dict):
        raise ParseError("expected a JSON object", path=path)
    return raw


def need(raw: dict, field: str, kind, path):
    """``raw[field]``, which must be present and an instance of ``kind``."""
    if field not in raw:
        raise ParseError("missing required field", field=field, path=path)
    value = raw[field]
    if not isinstance(value, kind):
        raise ParseError(f"expected {kind.__name__}, got {type(value).__name__}", field=field, path=path)
    return value


def read_ids(values, field: str, path) -> list[int]:
    """A JSON list of node, stage or rule ids, each a JSON integer.

    Nothing is truncated: a bool, a float or a string raises ParseError
    naming ``field``.
    """
    if not isinstance(values, list):
        raise ParseError(f"expected a list of ids, got {type(values).__name__}", field=field, path=path)
    # exact types, because a bool is an int and isinstance would admit it
    if not set(map(type, values)) <= {int}:
        bad = next(v for v in values if type(v) is not int)
        raise ParseError(f"expected an integer id, got {bad!r}", field=field, path=path)
    return values


def read_key(key: str, field: str, path) -> int:
    """An id written as a JSON object key, which must be its decimal text."""
    if not (key.isascii() and key.isdecimal()):
        raise ParseError(f"expected an integer id, got {key!r}", field=field, path=path)
    return int(key)


def read_number(value, field: str, path) -> float:
    """A JSON number as a float.

    A bool, a string or an integer beyond the float range raises ParseError
    naming ``field``.
    """
    if type(value) in (int, float):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ParseError(f"expected a number, got {value!r}", field=field, path=path)


def load(path) -> InformationFlowGraph:
    """Read a graph file; ids collapse and sort as in ``make_graph``.

    Raises ParseError, naming the field and ``path``, for malformed JSON, a
    missing field, a value of the wrong kind, or, in a file marked augmented,
    source edges that do not go to exactly the entry set.
    """
    raw = read_json(path)

    def flag(field):
        return field in raw and need(raw, field, bool, path)

    nodes = need(raw, "nodes", list, path)
    if not all(isinstance(rec, dict) and "id" in rec for rec in nodes):
        raise ParseError("each node record needs an 'id'", field="nodes", path=path)
    n = len(nodes)
    if sorted(read_ids([rec["id"] for rec in nodes], "nodes.id", path)) != list(range(1, n + 1)):
        raise ParseError("node ids must be exactly 1..n", field="nodes.id", path=path)
    nodes = sorted(nodes, key=lambda rec: rec["id"])
    labels = [rec.get("label", f"s{i}") for i, rec in enumerate(nodes, start=1)]
    if not all(isinstance(label, str) for label in labels):
        raise ParseError("node labels must be strings", field="nodes.label", path=path)
    traffic = [read_number(rec.get("traffic", 0.0), "nodes.traffic", path) for rec in nodes]

    pairs = need(raw, "edges", list, path)
    if not all(isinstance(item, list) and len(item) == 2 for item in pairs):
        raise ParseError("expected a list of [u, v] pairs", field="edges", path=path)
    ends = read_ids([v for item in pairs for v in item], "edges", path)
    edges = zip(ends[::2], ends[1::2])

    relevance = None
    if "rule_relevance" in raw:
        relevance = {read_key(i, "rule_relevance", path): read_ids(rules, "rule_relevance", path)
                     for i, rules in need(raw, "rule_relevance", dict, path).items()}
        if not relevance.keys() <= set(range(1, n + 1)):
            raise ParseError("rule_relevance keys must be node ids 1..n", field="rule_relevance",
                             path=path)

    stages = [read_ids(dest, "stages", path) for dest in need(raw, "stages", list, path)]
    vulnerable = read_ids(need(raw, "vulnerable", list, path), "vulnerable", path)
    fractional = flag("fractional_traffic")
    if flag("augmented"):
        edges = set(edges)
        entries = {v for u, v in edges if u == SOURCE}
        if entries != set(vulnerable):
            raise ParseError(f"pseudo-source edges go to {sorted(entries)}, expected exactly the "
                             f"entry set {sorted(set(vulnerable))}", field="edges", path=path)
        edges -= {(SOURCE, v) for v in entries}
    return make_graph(n, edges, stages, vulnerable, traffic=traffic, labels=labels,
                      rule_relevance=relevance, fractional_traffic=fractional)


def export_dot(graph: InformationFlowGraph) -> str:
    """Deterministic DOT text; destinations carry their stage indices, entries are marked."""
    lines = ["digraph ifg {", "  rankdir=LR;"]
    entries = set(graph.vulnerable)
    for i in range(1, graph.n + 1):
        label = graph.labels[i - 1]
        js = graph.stage_membership.get(i, ())
        if js:
            label += "\\nD" + ",".join(str(j) for j in js)
        attrs = [f'label="{label}"']
        if js:
            attrs.append("shape=doublecircle")
        if i in entries:
            attrs.append("peripheries=3")
        lines.append(f"  n{i} [{' '.join(attrs)}];")
    for u, v in graph.edges:
        lines.append(f"  n{u} -> n{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def strong_components(succ, roots) -> list[int]:
    """Strongly connected components of the part of a digraph that ``roots`` reach.

    ``succ[v]`` lists the successors of vertex v in 0..len(succ)-1.  Returns
    ``comp`` with ``comp[v]`` the component number of v, or -1 where no root
    reaches v.  Components are numbered in the order Tarjan's algorithm
    closes them, which is reverse topological: every edge between two
    components leads to a lower number.  Iterative, so long chains do not
    reach the interpreter recursion limit.
    """
    n = len(succ)
    index = [0] * n  # visit order from 1; 0 is unvisited
    low = [0] * n
    comp = [-1] * n  # -1 while unvisited or on the Tarjan stack
    stack: list[int] = []
    order = count = 0
    for root in roots:
        if index[root]:
            continue
        order += 1
        index[root] = low[root] = order
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            u, it = work[-1]
            for w in it:
                if not index[w]:
                    order += 1
                    index[w] = low[w] = order
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if comp[w] < 0 and index[w] < low[u]:
                    low[u] = index[w]
            else:  # u is finished
                work.pop()
                if work and low[u] < low[work[-1][0]]:
                    low[work[-1][0]] = low[u]
                if low[u] == index[u]:
                    while True:
                        w = stack.pop()
                        comp[w] = count
                        if w == u:
                            break
                    count += 1
    return comp


def entry_reachability(graph: InformationFlowGraph) -> tuple[tuple[int, ...], ...]:
    """For each node, the sorted entry nodes with a directed path to it.

    An entry reaches itself.  This is the per-node security-rule set used by
    the single-stage solution and by the synthetic graph generator.

    One pass: ``strong_components`` condenses the part of the graph the
    entries reach, and each component holds one Python-int bitmask of entries
    (bit i for the i-th entry).  Walking the nodes from the highest component
    number down visits the components in topological order, so each mask is
    complete before the component's edges OR it into their heads' masks.
    """
    entries = sorted(set(graph.vulnerable))
    succ = [()] + [graph.successors[v] for v in range(1, graph.n + 1)]  # s0 leads nowhere
    comp = strong_components(succ, entries)
    masks = [0] * (max(comp) + 1)
    for i, e in enumerate(entries):
        masks[comp[e]] |= 1 << i
    for u in sorted(range(len(comp)), key=comp.__getitem__, reverse=True):
        c = comp[u]
        if c < 0:  # the unreached nodes sort last
            break
        for w in succ[u]:
            d = comp[w]
            if d != c:
                masks[d] |= masks[c]
    names: dict[int, tuple[int, ...]] = {0: ()}
    out = []
    for c in comp[1:]:
        mask = masks[c] if c >= 0 else 0
        if mask not in names:
            names[mask] = tuple(e for i, e in enumerate(entries) if mask >> i & 1)
        out.append(names[mask])
    return tuple(out)
