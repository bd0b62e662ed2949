"""Independent correctness check of emitted matches.

The paper's definition (time-constrained subgraph isomorphism under a
timing order and a sliding window) is implemented here independently: the
verifier reads each query's definition (vertex and edge labels, edges,
timing order) but none of the program's matching code.  It

* checks every emitted match: labels, an injective and consistent vertex
  mapping, distinct data edges, the timing order ``≺`` and the window span;
* rejects a match emitted twice;
* enumerates every match of every query over the stream itself and
  compares the emitted multiset with that enumeration.

Matches are keyed as ``(query name, ((query edge id, stream index), ...))``
with stream indexes into the generated edge list, so engine matches and
gateway JSON records compare alike.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

Key = Tuple[str, Tuple[Tuple[str, int], ...]]


def label_ok(query_label, data_label) -> bool:
    """Label semantics: ``ANY`` matches anything, a ``Prefix`` matches a
    str/int whose text starts with it, tuples match position-wise, and any
    other label matches by equality."""
    from repro import ANY, Prefix
    if query_label is ANY:
        return True
    if isinstance(query_label, Prefix):
        if isinstance(data_label, bool):
            return False
        if isinstance(data_label, int):
            data_label = str(data_label)
        return isinstance(data_label, str) \
            and data_label.startswith(query_label.prefix)
    if isinstance(query_label, tuple):
        return isinstance(data_label, tuple) \
            and len(query_label) == len(data_label) \
            and all(label_ok(q, d) for q, d in zip(query_label, data_label))
    return query_label == data_label


class QuerySpec:
    """A query's definition as plain data."""

    def __init__(self, name: str, query) -> None:
        self.name = name
        self.vlabel = {v.vertex_id: v.label for v in query.vertices()}
        self.edges = {e.edge_id: (e.src, e.dst, e.label)
                      for e in query.edges()}
        #: (before, after) pairs of the timing order.
        self.order = [(a, b) for a in self.edges
                      for b in query.timing.successors(a)]
        self.later = defaultdict(set)
        self.earlier = defaultdict(set)
        for a, b in self.order:
            self.later[a].add(b)
            self.earlier[b].add(a)
        self._plans: Dict = {}
        self._compatible: Dict = {}

    def edge_ok(self, qeid, edge) -> bool:
        """Labels and loop shape of one data edge against one query edge
        (memoised per label triple: streams repeat few triples)."""
        triple = (qeid, edge.src_label, edge.label, edge.dst_label,
                  edge.src == edge.dst)
        ok = self._compatible.get(triple)
        if ok is None:
            src, dst, label = self.edges[qeid]
            ok = self._compatible[triple] = (
                (src == dst) == (edge.src == edge.dst)
                and label_ok(self.vlabel[src], edge.src_label)
                and label_ok(self.vlabel[dst], edge.dst_label)
                and label_ok(label, edge.label))
        return ok

    def plan(self, first) -> List:
        """Query edges in an order where each shares a vertex with an
        earlier one, starting from ``first`` (queries are connected)."""
        if first not in self._plans:
            order = [first]
            bound = set(self.edges[first][:2])
            rest = [q for q in self.edges if q != first]
            while rest:
                for q in rest:
                    if self.edges[q][0] in bound or self.edges[q][1] in bound:
                        break
                else:
                    raise ValueError(f"query {self.name} is not connected")
                rest.remove(q)
                order.append(q)
                bound.update(self.edges[q][:2])
            self._plans[first] = order
        return self._plans[first]


class Verifier:
    """Checks emitted matches of a stream against the definition."""

    def __init__(self, queries: Dict, edges: List, window: float) -> None:
        self.specs = {name: QuerySpec(name, q) for name, q in queries.items()}
        self.edges = edges
        self.window = window
        self.index = {(e.src, e.dst, e.timestamp): i
                      for i, e in enumerate(edges)}

    # -- keys ---------------------------------------------------------- #
    @staticmethod
    def key(name: str, assignment: Dict[Hashable, int]) -> Key:
        return (name, tuple(sorted((str(q), i)
                                   for q, i in assignment.items())))

    def key_of_match(self, name: str, match) -> Key:
        """Key of an engine :class:`~repro.Match`."""
        return self.key(name, {
            q: self.index[(e.src, e.dst, e.timestamp)]
            for q, e in match.edge_map.items()})

    def key_of_record(self, record: dict) -> Key:
        """Key of a gateway match record (WebSocket stream / match log);
        raises ``ValueError`` for an edge that is not in the stream or
        whose recorded label differs from the stream's."""
        assignment = {}
        for q, data in record["edges"].items():
            index = self.index.get((data["src"], data["dst"],
                                    data["timestamp"]))
            if index is None or self.edges[index].label != data["label"]:
                raise ValueError(f"record edge {q}={data} is not a stream "
                                 "edge")
            assignment[q] = index
        key = self.key(record["query"], assignment)
        latest = max(self.edges[i].timestamp for _, i in key[1])
        if record.get("matched_at") != latest:
            raise ValueError(f"matched_at {record.get('matched_at')} is not "
                             f"the latest edge time {latest}")
        return key

    # -- one match ------------------------------------------------------ #
    def violation(self, key: Key) -> Optional[str]:
        """Why ``key`` is not a match of its query, or ``None``."""
        name, pairs = key
        spec = self.specs.get(name)
        if spec is None:
            return f"unknown query {name!r}"
        assignment = {}
        by_str = {str(q): q for q in spec.edges}
        for q, i in pairs:
            if q not in by_str:
                return f"{name}: unknown query edge {q!r}"
            assignment[by_str[q]] = self.edges[i]
        if set(assignment) != set(spec.edges):
            return f"{name}: incomplete assignment"
        if len({id(e) for e in assignment.values()}) != len(assignment):
            return f"{name}: a data edge is used twice"
        vmap: Dict = {}
        for q, e in assignment.items():
            if not spec.edge_ok(q, e):
                return f"{name}: label mismatch on {q}"
            src, dst, _ = spec.edges[q]
            for qv, dv in ((src, e.src), (dst, e.dst)):
                if vmap.setdefault(qv, dv) != dv:
                    return f"{name}: inconsistent vertex mapping at {qv}"
        if len(set(vmap.values())) != len(vmap):
            return f"{name}: vertex mapping is not injective"
        for a, b in spec.order:
            if not assignment[a].timestamp < assignment[b].timestamp:
                return f"{name}: timing order {a} < {b} violated"
        stamps = [e.timestamp for e in assignment.values()]
        if not min(stamps) > max(stamps) - self.window:
            return f"{name}: span exceeds the window"
        return None

    # -- the whole answer ---------------------------------------------- #
    def enumerate(self, upto: Optional[int] = None,
                  start: int = 0) -> Counter:
        """Every match whose latest edge has stream index in
        ``[start, upto)``, found by backtracking from each arrival over
        the in-window edges adjacent to already-bound vertices."""
        edges = self.edges[:upto] if upto is not None else self.edges
        window = self.window
        live = deque()
        out_adj: Dict = defaultdict(deque)
        in_adj: Dict = defaultdict(deque)
        found: Counter = Counter()
        # Query edges each arrival can be the *latest* edge of: label-
        # compatible and with no successor in the timing order.
        finals = [(spec, q) for spec in self.specs.values()
                  for q in spec.edges if not spec.later[q]]
        finals_by_triple: Dict = {}
        for i, edge in enumerate(edges):
            cutoff = edge.timestamp - window
            while live and edges[live[0]].timestamp <= cutoff:
                old = live.popleft()
                out_adj[edges[old].src].popleft()
                in_adj[edges[old].dst].popleft()
            if i >= start:
                triple = (edge.src_label, edge.label, edge.dst_label,
                          edge.src == edge.dst)
                hits = finals_by_triple.get(triple)
                if hits is None:
                    hits = finals_by_triple[triple] = [
                        (spec, q) for spec, q in finals
                        if spec.edge_ok(q, edge)]
                for spec, q in hits:
                    self._extend(spec, spec.plan(q), 1, {q: i},
                                 self._bind({}, spec.edges[q], edge),
                                 edges, out_adj, in_adj, found)
            live.append(i)
            out_adj[edge.src].append(i)
            in_adj[edge.dst].append(i)
        return found

    @staticmethod
    def _bind(vmap, qedge, edge) -> Optional[Dict]:
        src, dst, _ = qedge
        new = dict(vmap)
        taken = set(vmap.values())
        for qv, dv in ((src, edge.src), (dst, edge.dst)):
            bound = new.get(qv)
            if bound is None:
                if dv in taken:
                    return None
                new[qv] = dv
                taken.add(dv)
            elif bound != dv:
                return None
        return new

    def _extend(self, spec, plan, depth, assignment, vmap, edges,
                out_adj, in_adj, found) -> None:
        if vmap is None:
            return
        if depth == len(plan):
            found[self.key(spec.name, assignment)] += 1
            return
        q = plan[depth]
        src, dst, _ = spec.edges[q]
        if src in vmap:
            candidates = out_adj.get(vmap[src], ())
        else:
            candidates = in_adj.get(vmap[dst], ())
        used = set(assignment.values())
        for j in candidates:
            if j in used:
                continue
            edge = edges[j]
            if not spec.edge_ok(q, edge):
                continue
            stamp = edge.timestamp
            if any(p in assignment and not edges[assignment[p]].timestamp
                   < stamp for p in spec.earlier[q]):
                continue
            if any(s in assignment and not stamp
                   < edges[assignment[s]].timestamp for s in spec.later[q]):
                continue
            assignment[q] = j
            self._extend(spec, plan, depth + 1, assignment,
                         self._bind(vmap, spec.edges[q], edge), edges,
                         out_adj, in_adj, found)
            del assignment[q]

    def compare(self, emitted: Iterable[Key], expected: Counter) -> dict:
        """Check each emitted key and the multiset against ``expected``.

        Returns counts plus up to five examples of each kind of fault;
        ``ok`` is true only when every count of a fault is zero.
        """
        seen: Counter = Counter()
        invalid: List[str] = []
        for key in emitted:
            seen[key] += 1
            if seen[key] == 1:
                reason = self.violation(key)
                if reason is not None:
                    invalid.append(reason)
        duplicates = [key for key, n in seen.items() if n > 1]
        missing = expected - Counter(seen.keys())
        extra = Counter(seen.keys()) - expected
        report = {
            "emitted": sum(seen.values()),
            "expected": sum(expected.values()),
            "invalid": len(invalid),
            "duplicates": len(duplicates),
            "missing": sum(missing.values()),
            "extra": sum(extra.values()),
            "examples": {
                "invalid": invalid[:5],
                "duplicates": [repr(k) for k in duplicates[:5]],
                "missing": [repr(k) for k in list(missing)[:5]],
                "extra": [repr(k) for k in list(extra)[:5]],
            },
        }
        report["ok"] = not (report["invalid"] or report["duplicates"]
                            or report["missing"] or report["extra"])
        return report
