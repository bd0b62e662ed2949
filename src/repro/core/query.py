"""Query graphs: structure + labels + timing order (paper Definition 3).

A query graph is ``Q = (V(Q), E(Q), L, ≺)``: labelled vertices, directed
edges, and a strict partial order ``≺`` over the edges.  This module provides
the user-facing builder plus everything the engine derives from it:

* label-compatibility between query edges and stream edges (with wildcard
  support — the CAIDA workload of §VII-A replaces source ports by ``*``);
* prerequisite subqueries ``Preq(ε)`` (Definition 6);
* induced subqueries, weak connectivity, query diameter (IncMat's affected
  area radius).
"""

from __future__ import annotations

from operator import itemgetter
from typing import (
    Callable, Dict, FrozenSet, Hashable, Iterable, List, Optional, Set,
    Tuple,
)

from ..graph.edge import StreamEdge
from .timing import TimingOrder

VertexId = Hashable
EdgeId = Hashable


class _Wildcard:
    """Sentinel matching any value in a label position."""

    _instance: Optional["_Wildcard"] = None

    def __new__(cls) -> "_Wildcard":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ANY"


#: Wildcard label component.  A query edge label of ``ANY`` matches every
#: data edge label; inside a tuple label it matches that position only,
#: e.g. ``(ANY, 80, "tcp")`` matches any source port to port 80 over tcp.
ANY = _Wildcard()


def prefix_text(value: Hashable) -> Optional[str]:
    """The canonical text a prefix predicate tests against.

    Strings are themselves; ints (but not bools) are their decimal form,
    so ``Prefix("44")`` matches both ``4480`` and ``"4480"``.  Every other
    type has no text form and returns ``None`` — prefix predicates never
    match such labels.
    """
    if isinstance(value, str):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    return None


class Prefix:
    """Prefix label predicate (DSL ``44*`` / ``prefix:44``).

    Matches any str/int label whose :func:`prefix_text` starts with
    ``prefix``.  Instances are hashable and compare by pattern value —
    never equal to a plain string or int — so sub-plan signatures built
    over predicate labels hash canonically instead of colliding with
    concrete-labelled plans, and routing tries can be keyed on them.
    """

    __slots__ = ("prefix",)

    def __init__(self, prefix: str) -> None:
        if not isinstance(prefix, str) or not prefix:
            raise ValueError("Prefix pattern must be a non-empty string; "
                             "use ANY for an any-label position")
        self.prefix = prefix

    def matches(self, value: Hashable) -> bool:
        text = prefix_text(value)
        return text is not None and text.startswith(self.prefix)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Prefix) and other.prefix == self.prefix

    def __hash__(self) -> int:
        return hash((Prefix, self.prefix))

    def __repr__(self) -> str:
        return f"Prefix({self.prefix!r})"

    def __reduce__(self) -> Tuple:
        return (Prefix, (self.prefix,))


def _label_is_concrete(label: Hashable) -> bool:
    """Whether a query label contains no wildcard or predicate at any
    depth — for such labels ``labels_compatible`` degenerates to plain
    equality."""
    if label is ANY or isinstance(label, Prefix):
        return False
    if isinstance(label, tuple):
        return all(_label_is_concrete(part) for part in label)
    return True


def routing_atom(label: Hashable) -> Optional[Tuple]:
    """The per-position routing atom for a query label, or ``None``.

    Atoms are what the session-level :class:`~repro.core.labeltrie.
    PredicateRouter` indexes: ``("eq", value)`` for concrete hashable
    labels, ``("pre", prefix)`` for top-level :class:`Prefix` patterns,
    ``("any",)`` for a top-level ``ANY``.  Labels with no atom (tuples
    containing wildcards/predicates, unhashable values) force the whole
    edge onto the always-routed generic path.
    """
    if label is ANY:
        return ("any",)
    if isinstance(label, Prefix):
        return ("pre", label.prefix)
    if _label_is_concrete(label):
        try:
            hash(label)
        except TypeError:
            return None
        return ("eq", label)
    return None


def labels_compatible(query_label: Hashable, data_label: Hashable) -> bool:
    """Wildcard/predicate-aware label comparison (query side may contain
    ``ANY`` or :class:`Prefix` at any tuple depth)."""
    if query_label is ANY:
        return True
    if isinstance(query_label, Prefix):
        return query_label.matches(data_label)
    if isinstance(query_label, tuple):
        if not isinstance(data_label, tuple) or len(query_label) != len(data_label):
            return False
        return all(labels_compatible(q, d)
                   for q, d in zip(query_label, data_label))
    return query_label == data_label


def _compile_shape(src_label: Hashable, edge_label: Hashable,
                   dst_label: Hashable, is_loop: bool) -> Optional[Tuple]:
    """Compile one query edge's labels into ``(arity, positions, key,
    checks)`` for the shaped tier, or ``None`` if it must stay generic.

    Positions index the flattened arrival ``(is-loop, src-label,
    dst-label, edge-label components...)``; ``arity`` is the edge-label
    tuple length, or ``None`` when the edge label is matched whole.
    ``positions`` are the concrete ones (is-loop always), ``key`` their
    values, and ``checks`` the ``(position, prefix)`` pairs of
    :class:`Prefix` components.  ``ANY`` positions appear in neither.
    """
    if isinstance(edge_label, tuple) and not _label_is_concrete(edge_label):
        arity: Optional[int] = len(edge_label)
        labels = (is_loop, src_label, dst_label) + edge_label
    else:
        arity = None
        labels = (is_loop, src_label, dst_label, edge_label)
    positions: List[int] = []
    key: List[Hashable] = []
    checks: List[Tuple[int, str]] = []
    for position, label in enumerate(labels):
        if label is ANY:
            continue
        if isinstance(label, Prefix):
            checks.append((position, label.prefix))
            continue
        if not _label_is_concrete(label):
            return None     # nested tuple with inner wildcards
        try:
            hash(label)
        except TypeError:
            return None
        positions.append(position)
        key.append(label)
    # The is-loop flag is always concrete.  When it is the only concrete
    # position, itemgetter projects a bare value, so the key is bare too.
    if len(positions) == 1:
        return arity, tuple(positions), key[0], tuple(checks)
    return arity, tuple(positions), tuple(key), tuple(checks)


def _prefixes_match(checks: Tuple[Tuple[int, str], ...],
                    flat: Tuple) -> bool:
    """Whether every ``(position, prefix)`` check holds on ``flat`` —
    :meth:`Prefix.matches` on each position."""
    for position, prefix in checks:
        text = prefix_text(flat[position])
        if text is None or not text.startswith(prefix):
            return False
    return True


class _LabelIndex:
    """A query's compiled label tiers (see
    :meth:`QueryGraph._build_label_index`) and its routing signature."""

    __slots__ = ("exact", "shapes", "generic", "signatures")

    def __init__(self, exact: Dict, shapes: List, generic: List,
                 signatures: Tuple) -> None:
        self.exact = exact
        self.shapes = shapes
        self.generic = generic
        self.signatures = signatures


class QueryVertex:
    """A labelled query vertex."""

    __slots__ = ("vertex_id", "label")

    def __init__(self, vertex_id: VertexId, label: Hashable) -> None:
        self.vertex_id = vertex_id
        self.label = label

    def __repr__(self) -> str:
        return f"QueryVertex({self.vertex_id!r}:{self.label!r})"


class QueryEdge:
    """A directed query edge with an optional (wildcard-able) label."""

    __slots__ = ("edge_id", "src", "dst", "label")

    def __init__(self, edge_id: EdgeId, src: VertexId, dst: VertexId,
                 label: Hashable = ANY) -> None:
        self.edge_id = edge_id
        self.src = src
        self.dst = dst
        self.label = label

    def __repr__(self) -> str:
        return f"QueryEdge({self.edge_id!r}: {self.src!r}->{self.dst!r})"

    @property
    def endpoints(self) -> Tuple[VertexId, VertexId]:
        return (self.src, self.dst)

    def shares_vertex_with(self, other: "QueryEdge") -> bool:
        return bool({self.src, self.dst} & {other.src, other.dst})


class QueryGraph:
    """Builder and read model for a time-constrained continuous query."""

    def __init__(self) -> None:
        self._vertices: Dict[VertexId, QueryVertex] = {}
        self._edges: Dict[EdgeId, QueryEdge] = {}
        self.timing = TimingOrder()
        # Compiled label tiers (see _build_label_index), built once at
        # validation time; ``None`` until built / after mutation.  Never
        # pickled: __setstate__ leaves it to be rebuilt lazily.
        self._label_index: Optional[_LabelIndex] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_vertex(self, vertex_id: VertexId, label: Hashable) -> QueryVertex:
        if vertex_id in self._vertices:
            raise ValueError(f"duplicate query vertex: {vertex_id!r}")
        vertex = QueryVertex(vertex_id, label)
        self._vertices[vertex_id] = vertex
        return vertex

    def add_edge(self, edge_id: EdgeId, src: VertexId, dst: VertexId,
                 label: Hashable = ANY) -> QueryEdge:
        if edge_id in self._edges:
            raise ValueError(f"duplicate query edge: {edge_id!r}")
        for vertex in (src, dst):
            if vertex not in self._vertices:
                raise KeyError(f"unknown query vertex: {vertex!r}")
        edge = QueryEdge(edge_id, src, dst, label)
        self._edges[edge_id] = edge
        self.timing.add_edge_id(edge_id)
        self._label_index = None
        return edge

    def add_timing_constraint(self, before: EdgeId, after: EdgeId) -> None:
        """Declare ``before ≺ after`` (matched timestamps must respect it)."""
        self.timing.add_constraint(before, after)

    def add_timing_chain(self, *edge_ids: EdgeId) -> None:
        """Declare ``e1 ≺ e2 ≺ ... ≺ en`` in one call."""
        for before, after in zip(edge_ids, edge_ids[1:]):
            self.timing.add_constraint(before, after)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def vertices(self) -> List[QueryVertex]:
        return list(self._vertices.values())

    def edges(self) -> List[QueryEdge]:
        return list(self._edges.values())

    def edge_ids(self) -> List[EdgeId]:
        return list(self._edges.keys())

    def vertex(self, vertex_id: VertexId) -> QueryVertex:
        return self._vertices[vertex_id]

    def edge(self, edge_id: EdgeId) -> QueryEdge:
        return self._edges[edge_id]

    def vertex_label(self, vertex_id: VertexId) -> Hashable:
        return self._vertices[vertex_id].label

    def has_edge_id(self, edge_id: EdgeId) -> bool:
        return edge_id in self._edges

    # ------------------------------------------------------------------ #
    # Matching helpers
    # ------------------------------------------------------------------ #
    def edge_matches(self, edge_id: EdgeId, stream_edge: StreamEdge) -> bool:
        """Compatibility of a stream edge with one query edge in isolation.

        Checks endpoint labels and the edge label (wildcard-aware), plus the
        one structural condition decidable per-edge: loop shape.  A self-loop
        query edge can only map to a self-loop data edge, and a non-loop
        query edge can never map to a self-loop (its two query vertices
        would collapse onto one data vertex, violating injectivity).
        Consistency with partially built matches is the join's job
        (:mod:`repro.core.join`), not this predicate's.
        """
        qedge = self._edges[edge_id]
        if (qedge.src == qedge.dst) != (stream_edge.src == stream_edge.dst):
            return False
        return (labels_compatible(self._vertices[qedge.src].label,
                                  stream_edge.src_label)
                and labels_compatible(self._vertices[qedge.dst].label,
                                      stream_edge.dst_label)
                and labels_compatible(qedge.label, stream_edge.label))

    def _build_label_index(self) -> "_LabelIndex":
        """Compile every query edge into one of the engine's three tiers.

        * **exact** — every label is concrete (no ``ANY``/:class:`Prefix`
          at any depth): ``labels_compatible`` is plain equality, so a
          dict hit on ``(src-label, edge-label, dst-label, is-loop)`` is
          exactly :meth:`edge_matches`.
        * **shaped** — every vertex label is ``ANY``, a :class:`Prefix` or
          concrete, and the edge label is one of those or a flat tuple of
          them.  Edges are grouped by *shape*: the edge-label arity plus
          which positions of ``(is-loop, src-label, dst-label,
          edge-label components...)`` hold concrete values.  ``ANY``
          positions drop out; concrete positions project into a dict key
          per shape; :class:`Prefix` positions become ``startswith``
          checks run on the dict hits only.
        * **generic** — nested tuples with inner wildcards and unhashable
          labels, checked by a per-arrival :meth:`edge_matches` scan.

        The routing signature (:meth:`label_signatures`) is compiled
        alongside, from the same per-edge classification.
        """
        exact: Dict[Tuple, List[Tuple[int, EdgeId]]] = {}
        shapes: Dict[Tuple, Tuple[Optional[int], Callable, Dict]] = {}
        generic: List[Tuple[int, EdgeId]] = []
        predicates: Set[Tuple] = set()
        has_generic = False
        for ordinal, (eid, qedge) in enumerate(self._edges.items()):
            src_label = self._vertices[qedge.src].label
            dst_label = self._vertices[qedge.dst].label
            entry = (ordinal, eid)
            is_loop = qedge.src == qedge.dst
            if (_label_is_concrete(src_label) and _label_is_concrete(dst_label)
                    and _label_is_concrete(qedge.label)):
                key = (src_label, qedge.label, dst_label, is_loop)
                try:
                    exact.setdefault(key, []).append(entry)
                except TypeError:
                    generic.append(entry)
                    has_generic = True
                continue
            atoms = (routing_atom(src_label), routing_atom(qedge.label),
                     routing_atom(dst_label))
            if all(atom is not None for atom in atoms):
                predicates.add((atoms[0], atoms[1], atoms[2], is_loop))
            else:
                has_generic = True
            compiled = _compile_shape(src_label, qedge.label, dst_label,
                                      is_loop)
            if compiled is None:
                generic.append(entry)
                continue
            arity, positions, key, checks = compiled
            shape = shapes.get((arity, positions))
            if shape is None:
                shape = shapes[(arity, positions)] = (
                    arity, itemgetter(*positions), {})
            shape[2].setdefault(key, []).append((ordinal, eid, checks))
        self._label_index = _LabelIndex(
            exact, list(shapes.values()), generic,
            (frozenset(exact), frozenset(predicates), has_generic))
        return self._label_index

    def matching_edge_ids(self, stream_edge: StreamEdge) -> List[EdgeId]:
        """All query edges a stream edge is label-compatible with.

        This runs once per arrival and once per expiry, so it never walks
        ``labels_compatible`` for hashable, at most one-tuple-deep query
        labels (see :meth:`_build_label_index`): one dict probe for the
        exact tier, one projection plus one dict probe per distinct shape
        (and the :class:`Prefix` checks of its hits), and an
        :meth:`edge_matches` scan of only the generic residue.  An
        unhashable data label falls back to a full scan.  The result is
        exactly the :meth:`edge_matches` scan's, in edge insertion order.
        """
        index = self._label_index
        if index is None:
            index = self._build_label_index()
        exact, shapes, generic = index.exact, index.shapes, index.generic
        is_loop = stream_edge.src == stream_edge.dst
        src_label = stream_edge.src_label
        label = stream_edge.label
        dst_label = stream_edge.dst_label
        try:
            hits = exact.get((src_label, label, dst_label, is_loop), ()) \
                if exact else ()
            if not shapes and not generic:
                return [eid for _, eid in hits]
            matched = list(hits)
            for arity, project, buckets in shapes:
                if arity is None:
                    flat = (is_loop, src_label, dst_label, label)
                elif isinstance(label, tuple) and len(label) == arity:
                    flat = (is_loop, src_label, dst_label) + label
                else:
                    continue
                for ordinal, eid, checks in buckets.get(project(flat), ()):
                    if not checks or _prefixes_match(checks, flat):
                        matched.append((ordinal, eid))
        except TypeError:       # unhashable data label: no dict probe
            return [eid for eid in self._edges
                    if self.edge_matches(eid, stream_edge)]
        if generic:
            matched.extend(entry for entry in generic
                           if self.edge_matches(entry[1], stream_edge))
        if len(matched) > 1:
            matched.sort()      # interleave tiers by insertion ordinal
        return [eid for _, eid in matched]

    def label_signatures(self) -> Tuple[FrozenSet[Tuple], FrozenSet[Tuple],
                                        bool]:
        """The query's routing signature:
        ``(exact_keys, predicates, has_generic)``.

        ``exact_keys`` is the set of concrete ``(src-label, edge-label,
        dst-label, is-loop)`` triples this query's wildcard-free edges
        probe for — the same keys :meth:`matching_edge_ids` hashes a
        stream edge into.  ``predicates`` is the set of ``(src-atom,
        edge-atom, dst-atom, is-loop)`` :func:`routing_atom` triples for
        edges carrying only top-level ``ANY``/:class:`Prefix` labels — a
        :class:`~repro.core.labeltrie.PredicateRouter` resolves them in
        O(label length) per arrival.  ``has_generic`` is ``True`` when
        some edge has no routing atom triple: a tuple label with inner
        wildcards or predicates, or an unhashable label.  Such edges may
        still sit in the engine's *shaped* tier (no per-arrival scan
        inside the engine), but a session cannot index them, so it routes
        every arrival to the query.  A stream edge that hits none of the
        three provably matches no query edge — which is what lets a
        multi-query :class:`~repro.api.Session` route arrivals to only
        the queries that can consume them.
        """
        index = self._label_index
        if index is None:
            index = self._build_label_index()
        return index.signatures

    def distinct_term_labels(self) -> int:
        """Number of distinct (src-label, edge-label, dst-label) triples.

        This is the ``d`` of the cost model (Theorem 7): the probability a
        random compatible arrival matches a given query edge is ``1/d``.
        """
        terms = {(self._vertices[e.src].label, e.label,
                  self._vertices[e.dst].label)
                 for e in self._edges.values()}
        return len(terms)

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #
    def edges_adjacent(self, a: EdgeId, b: EdgeId) -> bool:
        """Whether two query edges share an endpoint."""
        return self._edges[a].shares_vertex_with(self._edges[b])

    def is_weakly_connected(self, edge_ids: Optional[Iterable[EdgeId]] = None) -> bool:
        """Weak connectivity of the subquery induced by ``edge_ids``.

        With ``edge_ids=None`` the whole query is checked.  Connectivity is
        over the *edge* set: the induced subgraph on the edges' endpoints,
        ignoring direction (Definition 7 uses weak connectivity).
        """
        ids = list(self._edges if edge_ids is None else edge_ids)
        if not ids:
            return True
        adjacency: Dict[EdgeId, List[EdgeId]] = {e: [] for e in ids}
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                if self.edges_adjacent(a, b):
                    adjacency[a].append(b)
                    adjacency[b].append(a)
        seen = {ids[0]}
        stack = [ids[0]]
        while stack:
            for nbr in adjacency[stack.pop()]:
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        return len(seen) == len(ids)

    def diameter(self) -> int:
        """Undirected diameter of the query graph (∞-free: assumes connected).

        IncMat bounds its affected area by this value.
        """
        vertices = list(self._vertices)
        neighbors: Dict[VertexId, Set[VertexId]] = {v: set() for v in vertices}
        for edge in self._edges.values():
            neighbors[edge.src].add(edge.dst)
            neighbors[edge.dst].add(edge.src)
        best = 0
        for source in vertices:
            depth = {source: 0}
            frontier = [source]
            while frontier:
                nxt = []
                for vertex in frontier:
                    for nbr in neighbors[vertex]:
                        if nbr not in depth:
                            depth[nbr] = depth[vertex] + 1
                            nxt.append(nbr)
                frontier = nxt
            best = max(best, max(depth.values()))
        return best

    def preq(self, edge_id: EdgeId) -> FrozenSet[EdgeId]:
        """Prerequisite edge set of Definition 6."""
        return self.timing.preq(edge_id)

    def subquery(self, edge_ids: Iterable[EdgeId]) -> "QueryGraph":
        """Subquery induced by a set of edges, timing order restricted."""
        ids = list(edge_ids)
        sub = QueryGraph()
        needed_vertices: Set[VertexId] = set()
        for eid in ids:
            edge = self._edges[eid]
            needed_vertices.update(edge.endpoints)
        for vid in needed_vertices:
            sub.add_vertex(vid, self._vertices[vid].label)
        for eid in ids:
            edge = self._edges[eid]
            sub.add_edge(eid, edge.src, edge.dst, edge.label)
        restricted = self.timing.restricted_to(ids)
        for before, after in restricted.direct_constraints():
            sub.timing.add_constraint(before, after)
        return sub

    def validate(self) -> None:
        """Raise ``ValueError`` unless the query is well-formed.

        Well-formed means: at least one edge, weakly connected (the paper
        assumes connected queries — §III-B constructs prefix-connected
        permutations from this), and an acyclic timing order (guaranteed by
        construction in :class:`TimingOrder`).
        """
        if not self._edges:
            raise ValueError("query graph has no edges")
        if not self.is_weakly_connected():
            raise ValueError("query graph must be weakly connected")
        if self._label_index is None:
            self._build_label_index()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_label_index"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        # Older checkpoints carry a cache in a previous layout: drop
        # whatever arrives and recompile on first use.
        self.__dict__.update(state)
        self._label_index = None

    def __repr__(self) -> str:
        return (f"QueryGraph({self.num_vertices} vertices, "
                f"{self.num_edges} edges, "
                f"{len(self.timing.direct_constraints())} timing constraints)")
