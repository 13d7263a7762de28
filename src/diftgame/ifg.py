"""Information flow graph: data model, validation, source augmentation, file I/O.

Nodes are integers 1..n; index 0 is reserved for the pseudo-source that
augmentation prepends in front of the vulnerable entry set.  Each real node
carries a label, a traffic weight (the fraction of system flows passing
through it), and the set of security-rule indices that are meaningful at it.
Stage j of an attack is characterized by a destination set; destination sets
may overlap across stages and the graph may contain cycles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
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
    transformations (augmentation, generators) return new values.

    Fields
    ------
    n:              number of real nodes; ids are 1..n
    labels:         labels[i-1] labels node i
    traffic:        traffic[i-1] is the average traffic weight B of node i
    edges:          sorted ordered pairs (u, v); includes (0, e) once augmented
    stages:         destination sets D_1..D_M, each a sorted tuple of node ids
    vulnerable:     entry set, sorted tuple of node ids
    rule_relevance: rule_relevance[i-1] lists the rule indices (1..n) whose
                    check is meaningful at node i
    fractional_traffic: when True, validation requires traffic to sum to 1
    augmented:      True once the pseudo-source and its edges were added
    """

    n: int
    labels: tuple[str, ...]
    traffic: tuple[float, ...]
    edges: tuple[tuple[int, int], ...]
    stages: tuple[tuple[int, ...], ...]
    vulnerable: tuple[int, ...]
    rule_relevance: tuple[tuple[int, ...], ...]
    fractional_traffic: bool = False
    augmented: bool = False

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    @cached_property
    def successors(self) -> dict[int, tuple[int, ...]]:
        """Out-neighbors per node id, sorted; includes the source if augmented."""
        out: dict[int, list[int]] = {i: [] for i in range(0 if self.augmented else 1, self.n + 1)}
        for u, v in self.edges:
            out[u].append(v)
        return {u: tuple(sorted(vs)) for u, vs in out.items()}

    @cached_property
    def predecessors(self) -> dict[int, tuple[int, ...]]:
        inc: dict[int, list[int]] = {i: [] for i in range(0 if self.augmented else 1, self.n + 1)}
        for u, v in self.edges:
            inc[v].append(u)
        return {v: tuple(sorted(us)) for v, us in inc.items()}

    @cached_property
    def stage_membership(self) -> dict[int, tuple[int, ...]]:
        """Node id -> sorted stage indices (1-based) whose destination set contains it."""
        member: dict[int, list[int]] = {}
        for j, dest in enumerate(self.stages, start=1):
            for d in dest:
                member.setdefault(d, []).append(j)
        return {d: tuple(js) for d, js in member.items()}

    @cached_property
    def rule_columns(self) -> np.ndarray:
        """Defender-row column of each relevant rule, one row per node id 0..n.

        Rule r sits in column 1 + r of a defender probability row.  Rows keep
        the ``relevance`` order and are padded with column n + 2, one past the
        last real column; row 0 (the pseudo-source) is all padding.
        """
        width = max((len(r) for r in self.rule_relevance), default=0)
        table = np.full((self.n + 1, width), self.n + 2, dtype=np.intp)
        for i, rules in enumerate(self.rule_relevance, start=1):
            table[i, :len(rules)] = [1 + r for r in rules]
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
    """Build an unaugmented graph, applying the documented defaults.

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
    if graph.augmented:
        known.add(SOURCE)

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
            if d not in known or d == SOURCE:
                out.append(Violation("unknown-destination", f"stage {j} destination {d} is not a real node"))

    if not graph.vulnerable:
        out.append(Violation("empty-vulnerable", "the vulnerable entry set is empty"))
    for v in graph.vulnerable:
        if v not in known or v == SOURCE:
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

    if graph.augmented:
        source_out = tuple(sorted(v for u, v in graph.edges if u == SOURCE))
        if source_out != graph.vulnerable:
            out.append(
                Violation(
                    "source-degree",
                    f"pseudo-source edges go to {source_out}, expected exactly the entry set {graph.vulnerable}",
                )
            )
    return out


def augment_with_source(graph: InformationFlowGraph) -> InformationFlowGraph:
    """Return a copy with node 0 added and one edge (0, e) per entry node.

    Raises ValidationError when already augmented, when the entry set is
    empty, or when an entry node is unknown.
    """
    if graph.augmented:
        raise ValidationError("graph is already augmented with the pseudo-source")
    if not graph.vulnerable:
        raise ValidationError("cannot augment: the vulnerable entry set is empty")
    for v in graph.vulnerable:
        if not 1 <= v <= graph.n:
            raise ValidationError(f"cannot augment: entry node {v} is not a real node")
    edges = tuple(sorted(set(graph.edges) | {(SOURCE, v) for v in graph.vulnerable}))
    return replace(graph, edges=edges, augmented=True)


def ensure_augmented(graph: InformationFlowGraph) -> InformationFlowGraph:
    """Augment unless the caller already did; never mutates the input."""
    return graph if graph.augmented else augment_with_source(graph)


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
# Node ids must be exactly 1..n (0 appears only in augmented files).
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
        "augmented": graph.augmented,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load(path) -> InformationFlowGraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}", path=path) from exc

    def need(field_name, kind):
        if field_name not in raw:
            raise ParseError("missing required field", field=field_name, path=path)
        value = raw[field_name]
        if not isinstance(value, kind):
            raise ParseError(f"expected {kind.__name__}, got {type(value).__name__}", field=field_name, path=path)
        return value

    nodes = need("nodes", list)
    ids, labels, traffic = [], [], []
    for rec in nodes:
        if not isinstance(rec, dict) or "id" not in rec:
            raise ParseError("each node record needs an 'id'", field="nodes", path=path)
        ids.append(int(rec["id"]))
        labels.append(str(rec.get("label", f"s{rec['id']}")))
        try:
            traffic.append(float(rec.get("traffic", 0.0)))
        except (TypeError, ValueError) as exc:
            raise ParseError("node traffic must be a number", field="nodes.traffic", path=path) from exc
    n = len(ids)
    if sorted(ids) != list(range(1, n + 1)):
        raise ParseError("node ids must be exactly 1..n", field="nodes.id", path=path)
    order = sorted(range(n), key=lambda k: ids[k])
    labels = [labels[k] for k in order]
    traffic = [traffic[k] for k in order]

    def int_pairs(field_name):
        value = need(field_name, list)
        pairs = []
        for item in value:
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise ParseError("expected a list of [u, v] pairs", field=field_name, path=path)
            pairs.append((int(item[0]), int(item[1])))
        return pairs

    stages_raw = need("stages", list)
    stages = []
    for j, dest in enumerate(stages_raw, start=1):
        if not isinstance(dest, list):
            raise ParseError(f"stage {j} must be a list of node ids", field="stages", path=path)
        try:
            stages.append(tuple(sorted(int(d) for d in dest)))
        except (TypeError, ValueError) as exc:
            raise ParseError(f"stage {j} contains a non-integer entry", field="stages", path=path) from exc

    vulnerable = need("vulnerable", list)
    try:
        vulnerable = tuple(sorted(int(v) for v in vulnerable))
    except (TypeError, ValueError) as exc:
        raise ParseError("vulnerable entries must be integers", field="vulnerable", path=path) from exc

    if "rule_relevance" in raw:
        rel_raw = need("rule_relevance", dict)
        relevance = []
        for i in range(1, n + 1):
            rel = rel_raw.get(str(i), [])
            if not isinstance(rel, list):
                raise ParseError(f"rule_relevance[{i}] must be a list", field="rule_relevance", path=path)
            relevance.append(tuple(sorted(int(r) for r in rel)))
        relevance = tuple(relevance)
    else:
        relevance = (tuple(range(1, n + 1)),) * n

    graph = InformationFlowGraph(
        n=n,
        labels=tuple(labels),
        traffic=tuple(traffic),
        edges=tuple(sorted(set(int_pairs("edges")))),
        stages=tuple(stages),
        vulnerable=vulnerable,
        rule_relevance=relevance,
        fractional_traffic=bool(raw.get("fractional_traffic", False)),
        augmented=bool(raw.get("augmented", False)),
    )
    return graph


def export_dot(graph: InformationFlowGraph) -> str:
    """Deterministic DOT text; destinations carry their stage indices, entries are marked."""
    lines = ["digraph ifg {", "  rankdir=LR;"]
    if graph.augmented:
        lines.append('  n0 [label="s0" shape=point];')
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


def entry_reachability(graph: InformationFlowGraph) -> tuple[tuple[int, ...], ...]:
    """For each node, the sorted entry indices with a directed path to it.

    An entry reaches itself.  This is the per-node security-rule set used by
    the single-stage solution and by the synthetic graph generator.
    """
    reached: list[set[int]] = [set() for _ in range(graph.n + 1)]
    succ = graph.successors
    for e in graph.vulnerable:
        stack = [e]
        seen = {e}
        while stack:
            u = stack.pop()
            reached[u].add(e)
            for w in succ.get(u, ()):
                if w not in seen and w != SOURCE:
                    seen.add(w)
                    stack.append(w)
    return tuple(tuple(sorted(reached[i])) for i in range(1, graph.n + 1))


def stage_arrivals(graph: InformationFlowGraph) -> set[tuple[int, int]]:
    """All (node, stage) arrival events reachable from the source, stage-respecting.

    An arrival that cascades through overlapping destination sets counts as
    an arrival for every stage it crosses.
    """
    graph = ensure_augmented(graph)
    m = graph.n_stages
    succ = graph.successors
    seen = {(SOURCE, 1)}
    arrivals: set[tuple[int, int]] = set()
    stack = [(SOURCE, 1)]
    while stack:
        v, j = stack.pop()
        for w in succ.get(v, ()):
            nxt = graph.advance(w, j)
            arrivals.add((w, j))
            for s in range(j + 1, nxt):
                arrivals.add((w, s))
            if nxt <= m and (w, nxt) not in seen:
                seen.add((w, nxt))
                stack.append((w, nxt))
    return arrivals
