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

import json
import math
import os
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter, lt

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
        rules = np.fromiter(chain.from_iterable(self.rule_relevance), dtype=np.intp,
                            count=nodes.size - 2 * self.n)
        rules += 1
        columns = np.zeros(nodes.size, dtype=np.intp)
        columns[tags + 1] = 1
        columns[is_rule] = rules
        nodes.setflags(write=False)
        columns.setflags(write=False)
        return nodes, columns

    @cached_property
    def landing(self) -> np.ndarray:
        """Per state code, the code of the state that an arrival there lands in.

        State (v, j), node v in 0..n and stage j in 1..M, has code
        ``v * M + j - 1``.  An arrival at a stage-j destination in stage j
        advances the stage, cascading when destination sets overlap; -1 marks
        an arrival that completes stage M.  One backward pass over the stages
        builds the table.  Raises ValidationError for a destination outside 1..n.
        """
        bad = [(j, d) for j, ds in enumerate(self.stages, 1) for d in ds if not 1 <= d <= self.n]
        if bad:
            raise ValidationError("stage {} destination {} is not a real node".format(*bad[0]))
        m = self.n_stages
        table = np.arange((self.n + 1) * m).reshape(self.n + 1, m)
        after = np.full(self.n + 1, -1)  # landings in stage j + 1; -1 past stage M
        for j in range(m, 0, -1):
            dest = list(self.stages[j - 1])
            table[dest, j - 1] = after[dest]
            after = table[:, j - 1]
        table = table.ravel()
        table.setflags(write=False)
        return table

    def relevance(self, node: int) -> tuple[int, ...]:
        """Rule indices meaningful at ``node``; empty for the pseudo-source."""
        if node == SOURCE:
            return ()
        return self.rule_relevance[node - 1]

    def advance(self, node: int, stage: int) -> int:
        """Stage in effect after all forced destination crossings at ``node``,
        read from ``landing``; n_stages + 1 once every stage is completed.
        Raises ValidationError for a node outside 0..n or a stage outside
        1..n_stages + 1."""
        m = self.n_stages
        if not (0 <= node <= self.n and 1 <= stage <= m + 1):
            raise ValidationError(f"state ({node}, {stage}) lies outside nodes 0..{self.n} "
                                  f"and stages 1..{m + 1}")
        code = int(self.landing[node * m + stage - 1]) if stage <= m else -1
        return code % m + 1 if code >= 0 else m + 1


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
        relevance = tuple(map(_collapse, map(rule_relevance.get, range(1, n + 1), repeat(()))))
    else:
        relevance = tuple(map(_collapse, rule_relevance))
        if len(relevance) != n:
            raise ValidationError("rule_relevance must list one rule set per node")
    pairs = list(map(tuple, edges))
    if not set(map(len, pairs)) <= {2}:
        raise ValidationError("each edge must be a (u, v) pair")
    if not set(map(type, chain.from_iterable(pairs))) <= {int}:
        pairs = [(int(u), int(v)) for u, v in pairs]
    return InformationFlowGraph(
        n=n,
        labels=tuple(labels),
        traffic=tuple(map(float, traffic)),
        edges=_collapse(pairs),
        stages=tuple(_collapse(map(int, dest)) for dest in stages),
        vulnerable=_collapse(map(int, vulnerable)),
        rule_relevance=relevance,
        fractional_traffic=bool(fractional_traffic),
    )


def _collapse(items) -> tuple:
    """``tuple(sorted(set(items)))``; no set or sort when ``items`` already
    ascend strictly, as every list in a saved file does."""
    items = tuple(items)
    if all(map(lt, items, items[1:])):
        return items
    return tuple(sorted(set(items)))


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

    if not graph.stages:
        out.append(Violation("no-stages", "the graph has no stages"))
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
    ids = range(1, graph.n + 1)
    payload = {  # tuples are written as JSON lists
        "nodes": [{"id": i, "label": label, "traffic": b}
                  for i, label, b in zip(ids, graph.labels, graph.traffic)],
        "edges": graph.edges,
        "stages": graph.stages,
        "vulnerable": graph.vulnerable,
        "rule_relevance": dict(zip(map(str, ids), graph.rule_relevance)),
        "fractional_traffic": graph.fractional_traffic,
        "augmented": False,
    }
    write_json(payload, path)


def write_json(payload: dict, path) -> None:
    """Write ``payload`` as indented, key-sorted JSON ending in a newline.

    The bytes are exactly those of ``json.dump(payload, fh, indent=1,
    sort_keys=True)`` followed by a newline, where an ``np.ndarray`` counts
    as its ``tolist()``: plain ASCII, ``\\n`` line ends, the same text on
    every platform.  ``json`` encodes every value in Python whenever
    ``indent`` is set, so the per-element work runs in C here:

    - A flat list (of scalars) or a flat str-keyed dict, and a list or
      dict of such, is one compact C ``json.dumps`` whose ``", "``
      separators become the indented ones.  A string holding ``", "``
      would make that ambiguous; the separators are counted, and on a
      mismatch the value takes the general path.
    - Every other container is walked item by item, with each scalar
      written by ``encode_basestring_ascii``, ``float.__repr__`` or
      ``int.__repr__``, as ``json`` does.
    - A 2-D numeric array is written row by row.  All-zero rows (by their
      bits, so ``-0.0`` stays live) share one cached text; a sparse live
      row splices its non-zero items into that text, and a dense one is
      a single join over ``map``.

    The result is streamed in binary mode through ``os.writev``, which
    resumes after short writes, so a large matrix file is copied from its
    row texts once and never held as one string.
    """
    chunks = _Encoder().encode(payload)
    with open(path, "wb") as fh:
        _write_chunks(fh, chunks)


_SCALARS = frozenset({str, int, float, bool, type(None)})
_DENSE = 3  # a matrix row with more than width / _DENSE non-zero items is written whole
try:
    _IOV_MAX = max(os.sysconf("SC_IOV_MAX"), 16)
except (AttributeError, ValueError, OSError):
    _IOV_MAX = 16  # the POSIX minimum


class _Encoder:
    """The bytes of one ``write_json`` call, as a list of chunks."""

    def __init__(self):
        self.chunks: list[bytes] = []
        self.text: list[str] = []

    def encode(self, payload) -> list[bytes]:
        self.value(payload, "")
        self.text.append("\n")
        self.flush()
        return self.chunks

    def flush(self) -> None:
        self.chunks.append("".join(self.text).encode("ascii"))
        self.text = []

    def value(self, value, indent: str) -> None:
        """Append ``value``, whose first line is already indented by ``indent``."""
        if isinstance(value, np.ndarray):
            if value.ndim == 2 and value.size and value.dtype.kind in "fiu":
                self.matrix(value, indent)
                return
            value = value.tolist()
        if not isinstance(value, (list, tuple, dict)):
            self.text.append(_scalar_text(value))
        elif not value:
            self.text.append("{}" if isinstance(value, dict) else "[]")
        else:
            flat = _flat_texts([value], indent)
            if flat is not None:
                self.text.append(flat[0])
            else:
                self.container(value, indent)

    def container(self, value, indent: str) -> None:
        """Append a non-empty list, tuple or dict that is not flat itself."""
        inner = indent + " "
        sep = ",\n" + inner
        if isinstance(value, dict):
            if set(map(type, value)) <= {str}:
                keys = sorted(value)
                texts = _flat_texts(list(map(value.__getitem__, keys)), inner)
                if texts is not None:
                    items = map("{}: {}".format, map(encode_basestring_ascii, keys), texts)
                    self.text.append(f"{{\n{inner}{sep.join(items)}\n{indent}}}")
                    return
            self.text.append("{\n" + inner)
            for i, (key, item) in enumerate(sorted(value.items())):
                self.text.append(f"{sep if i else ''}{_key_text(key)}: ")
                self.value(item, inner)
            self.text.append(f"\n{indent}}}")
        else:
            texts = _flat_texts(list(value), inner)
            if texts is not None:
                self.text.append(f"[\n{inner}{sep.join(texts)}\n{indent}]")
                return
            self.text.append("[\n" + inner)
            for i, item in enumerate(value):
                if i:
                    self.text.append(sep)
                self.value(item, inner)
            self.text.append(f"\n{indent}]")

    def matrix(self, matrix: np.ndarray, indent: str) -> None:
        """Append a non-empty 2-D numeric array, streaming its rows as chunks."""
        row_indent, item_indent = indent + " ", indent + "  "
        bits = np.ascontiguousarray(matrix).view(f"u{matrix.itemsize}")
        live = np.flatnonzero(bits.any(axis=1))
        # tolist() gives plain ints and floats, whose repr is json's text when finite
        finite = matrix.dtype.kind != "f" or np.isfinite(matrix[live]).all()
        fmt = repr if finite else _float_text
        width = matrix.shape[1]
        unit = f"\n{item_indent}{fmt(matrix.dtype.type(0).item())},"
        run, size = unit * width, len(unit)
        sep, between = ",\n" + item_indent, ",\n" + row_indent
        rows = [f"{between}[{run[:-1]}\n{row_indent}]".encode("ascii")] * len(matrix)
        for r in live.tolist():
            cols = np.flatnonzero(bits[r])
            if len(cols) * _DENSE > width:
                text = f"[\n{item_indent}{sep.join(map(fmt, matrix[r].tolist()))}"
            else:
                pieces, done = ["["], 0
                for c, item in zip(cols.tolist(), map(fmt, matrix[r, cols].tolist())):
                    pieces += (run[done * size:c * size], "\n", item_indent, item, ",")
                    done = c + 1
                pieces.append(run[done * size:])
                text = "".join(pieces)[:-1]
            rows[r] = f"{between}{text}\n{row_indent}]".encode("ascii")
        self.text.append("[\n" + row_indent)
        self.flush()
        self.chunks.append(rows[0][len(between):])
        self.chunks += rows[1:]
        self.text.append(f"\n{indent}]")


def _flat_texts(children: list, indent: str) -> list[str] | None:
    """The indented texts of ``children``, each to follow ``indent`` on its first line.

    Each child must be a list or tuple of scalars or a dict of str keys and
    scalar values, so one compact ``json.dumps`` of them all holds ``", "``
    only between items.  Returns None when a child is not flat, or when a
    string in them holds ``", "`` too, which the count reveals.
    """
    kinds = set(map(type, children))
    if kinds <= {list, tuple}:
        opening, closing = "[", "]"
        scalars = chain.from_iterable(children)
    elif kinds == {dict}:
        if not set(map(type, chain.from_iterable(children))) <= {str}:
            return None
        opening, closing = "{", "}"
        scalars = chain.from_iterable(map(dict.values, children))
    else:
        return None
    if not set(map(type, scalars)) <= _SCALARS:
        return None
    text = json.dumps(children, sort_keys=True)
    filled = sum(map(bool, children))
    if text.count(", ") != sum(map(len, children)) - filled + len(children) - 1:
        return None
    item = indent + " "
    head, tail = f"{opening}\n{item}", f"\n{indent}{closing}"
    body = text[2:-2].replace(f"{closing}, {opening}", "\0").replace(", ", ",\n" + item)
    body = head + body.replace("\0", tail + "\0" + head) + tail
    if filled < len(children):
        body = body.replace(head + tail, opening + closing)
    return body.split("\0")


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _scalar_text(value) -> str:
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _key_text(key) -> str:
    """A dict key as ``json`` writes it: a str, or a number, bool or None as text."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if isinstance(key, (int, float)) or key is None:
        return encode_basestring_ascii(_scalar_text(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _write_chunks(fh, chunks: list[bytes]) -> None:
    """Write ``chunks`` in order to the binary file ``fh``."""
    if not hasattr(os, "writev"):  # POSIX only
        fh.writelines(chunks)
        return
    pending = [chunk for chunk in chunks if len(chunk)]  # so every write advances
    fd, start = fh.fileno(), 0
    while start < len(pending):
        written = os.writev(fd, pending[start:start + _IOV_MAX])
        if written <= 0:
            raise OSError(f"os.writev wrote {written} bytes")
        while written:
            size = len(pending[start])
            if written < size:  # a short write: resume inside this chunk
                pending[start] = memoryview(pending[start])[written:]
                break
            written -= size
            start += 1


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

    The checks and the collapse run as C-level passes over each field (type
    sets, ``map``), and a list that already ascends strictly, as in every
    file ``save`` writes, is not sorted again.

    Raises ParseError, naming the field and ``path``, for malformed JSON, a
    missing field, a value of the wrong kind, or, in a file marked augmented,
    source edges that do not go to exactly the entry set.
    """
    raw = read_json(path)

    def flag(field):
        return field in raw and need(raw, field, bool, path)

    nodes = need(raw, "nodes", list, path)
    if not (set(map(type, nodes)) <= {dict} and all(map(dict.__contains__, nodes, repeat("id")))):
        raise ParseError("each node record needs an 'id'", field="nodes", path=path)
    n = len(nodes)
    ids = read_ids(list(map(itemgetter("id"), nodes)), "nodes.id", path)
    if ids != list(range(1, n + 1)):
        if sorted(ids) != list(range(1, n + 1)):
            raise ParseError("node ids must be exactly 1..n", field="nodes.id", path=path)
        nodes = sorted(nodes, key=itemgetter("id"))
    if all(map(dict.__contains__, nodes, repeat("label"))):
        labels = list(map(itemgetter("label"), nodes))
    else:
        labels = [rec.get("label", f"s{i}") for i, rec in enumerate(nodes, start=1)]
    if not set(map(type, labels)) <= {str}:
        raise ParseError("node labels must be strings", field="nodes.label", path=path)
    traffic = list(map(dict.get, nodes, repeat("traffic"), repeat(0.0)))
    if not set(map(type, traffic)) <= {float}:
        traffic = [read_number(b, "nodes.traffic", path) for b in traffic]

    pairs = need(raw, "edges", list, path)
    if not (set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}):
        raise ParseError("expected a list of [u, v] pairs", field="edges", path=path)
    read_ids(list(chain.from_iterable(pairs)), "edges", path)
    edges = list(map(tuple, pairs))

    relevance = None
    if "rule_relevance" in raw:
        table = need(raw, "rule_relevance", dict, path)
        keys, rules = "".join(table), list(table.values())
        if (all(table) and keys.isascii() and keys.isdecimal() and set(map(type, rules)) <= {list}
                and set(map(type, chain.from_iterable(rules))) <= {int}):
            relevance = dict(zip(map(int, table), rules))
        else:  # the first bad entry raises
            relevance = {read_key(i, "rule_relevance", path): read_ids(r, "rule_relevance", path)
                         for i, r in table.items()}
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
        js = [j for j, dest in enumerate(graph.stages, start=1) if i in dest]
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
