"""Differential suite for the engine's compiled label tiers.

``QueryGraph.matching_edge_ids`` runs once per arrival and once per
expiry inside every engine, so it is compiled: fully concrete query
edges into an exact dict, hashable at-most-one-tuple-deep labels with
``ANY``/``Prefix`` positions into per-shape dicts, and only nested or
unhashable labels into a residual scan.  Whatever the tier, the answer
must be exactly the definition's: every query edge ``edge_matches``
accepts, in edge insertion order.
"""

import copyreg
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ANY, Prefix, QueryGraph, StreamEdge
from repro.core import query as query_module

#: Scalars that collide in interesting ways: ints vs their decimal
#: strings vs bools (``True == 1`` but ``Prefix`` never matches bools),
#: and strings sharing prefixes.
SCALARS = [0, 1, 4, 44, 440, "4", "44", "440", "a", "ab", True, False, None]
PREFIXES = ["4", "44", "a", "1"]

scalars = st.sampled_from(SCALARS)
predicates = st.one_of(st.just(ANY), st.sampled_from(PREFIXES).map(Prefix))
components = st.one_of(scalars, predicates)


def _nested(children):
    return st.tuples(children, st.just(ANY)) | st.tuples(
        st.just(ANY), st.tuples(children, predicates))


#: Query labels: every form the tiers distinguish.
query_scalar_labels = st.one_of(scalars, predicates)
query_flat_tuples = st.lists(components, min_size=0, max_size=3).map(tuple)
query_concrete_tuples = st.lists(scalars, min_size=1, max_size=3).map(tuple)
query_nested = _nested(components)
query_unhashable = st.lists(scalars, min_size=0, max_size=2)
query_labels = st.one_of(
    query_scalar_labels, query_flat_tuples, query_concrete_tuples,
    query_nested, query_unhashable)
vertex_labels = st.one_of(
    query_scalar_labels, query_concrete_tuples, query_nested,
    query_unhashable)

#: Data labels: scalars, flat tuples of every arity, nested tuples and
#: unhashable values (lists, tuples holding lists).
data_flat_tuples = st.lists(scalars, min_size=0, max_size=4).map(tuple)
data_labels = st.one_of(
    scalars, data_flat_tuples,
    st.tuples(st.tuples(scalars), scalars),
    st.lists(scalars, max_size=2),
    st.tuples(scalars, st.lists(scalars, max_size=1)))

VERTICES = ["v0", "v1", "v2"]


@st.composite
def queries(draw, edge_labels=query_labels, vlabels=vertex_labels):
    q = QueryGraph()
    for vid in VERTICES:
        q.add_vertex(vid, draw(vlabels))
    count = draw(st.integers(1, 6))
    for i in range(count):
        src = draw(st.sampled_from(VERTICES))
        dst = draw(st.sampled_from(VERTICES))   # self-loops included
        q.add_edge(f"e{i}", src, dst, draw(edge_labels))
    return q


@st.composite
def arrivals(draw, labels=data_labels):
    src = draw(st.sampled_from(["x", "y"]))
    dst = draw(st.sampled_from(["x", "y"]))
    return StreamEdge(src, dst, src_label=draw(labels),
                      dst_label=draw(labels), timestamp=1.0,
                      label=draw(labels))


def brute_force(q, edge):
    """The definition: every query edge compatible in isolation."""
    return [eid for eid in q.edge_ids() if q.edge_matches(eid, edge)]


def tiers(q):
    index = q._label_index
    if index is None:
        q.matching_edge_ids(StreamEdge("x", "y", src_label=0, dst_label=0,
                                       timestamp=0.0, label=0))
        index = q._label_index
    return index


def _arrival(src_label, label, dst_label, loop=False):
    return StreamEdge("x", "x" if loop else "y", src_label=src_label,
                      dst_label=dst_label, timestamp=1.0, label=label)


class TestDifferential:
    @settings(max_examples=300, deadline=None)
    @given(queries(), st.lists(arrivals(), min_size=1, max_size=8))
    def test_equals_brute_force(self, q, edges):
        for edge in edges:
            assert q.matching_edge_ids(edge) == brute_force(q, edge)

    @settings(max_examples=200, deadline=None)
    @given(queries(edge_labels=st.one_of(query_scalar_labels,
                                         query_flat_tuples),
                   vlabels=query_scalar_labels),
           st.lists(arrivals(labels=st.one_of(scalars, data_flat_tuples)),
                    min_size=1, max_size=8))
    def test_shaped_only_queries_equal_brute_force(self, q, edges):
        """Hashable flat labels never reach the residual scan."""
        assert tiers(q).generic == []
        for edge in edges:
            assert q.matching_edge_ids(edge) == brute_force(q, edge)

    @settings(max_examples=100, deadline=None)
    @given(queries(), st.lists(arrivals(), min_size=1, max_size=4))
    def test_pickle_round_trip_matches_like_fresh(self, q, edges):
        q.matching_edge_ids(edges[0])       # build the cache first
        restored = pickle.loads(pickle.dumps(q))
        assert restored._label_index is None
        for edge in edges:
            assert restored.matching_edge_ids(edge) == brute_force(q, edge)


class TestTierPlacement:
    def _wildcard_query(self):
        q = QueryGraph()
        q.add_vertex("a", "ip")
        q.add_vertex("b", "ip")
        q.add_vertex("c", "ip")
        q.add_edge("e1", "a", "b", (ANY, 80, "tcp"))
        q.add_edge("e2", "b", "c", (ANY, 443, "tcp"))
        q.add_edge("e3", "c", "a", (ANY, 80, "tcp"))
        return q

    def test_inner_wildcard_tuples_share_one_shape(self):
        index = tiers(self._wildcard_query())
        assert index.exact == {} and index.generic == []
        assert len(index.shapes) == 1

    def test_shaped_tier_never_calls_labels_compatible(self, monkeypatch):
        q = self._wildcard_query()
        tiers(q)

        def forbidden(*_):
            raise AssertionError("recursive label scan on the hot path")

        monkeypatch.setattr(query_module, "labels_compatible", forbidden)
        assert q.matching_edge_ids(
            _arrival("ip", (5123, 80, "tcp"), "ip")) == ["e1", "e3"]
        assert q.matching_edge_ids(
            _arrival("ip", (5123, 443, "tcp"), "ip")) == ["e2"]
        assert q.matching_edge_ids(
            _arrival("ip", (5123, 443, "udp"), "ip")) == []
        assert q.matching_edge_ids(_arrival("ip", "tcp", "ip")) == []

    def test_prefix_components_checked_on_hits(self):
        q = QueryGraph()
        q.add_vertex("a", Prefix("srv"))
        q.add_vertex("b", ANY)
        q.add_edge("c1", "a", "b", (Prefix("44"), "tcp"))
        q.add_edge("m1", "b", "a")
        index = tiers(q)
        assert index.generic == [] and len(index.shapes) == 2
        assert q.matching_edge_ids(
            _arrival("srv1", (4480, "tcp"), "srv2")) == ["c1", "m1"]
        assert q.matching_edge_ids(
            _arrival("srv1", ("4480", "tcp"), "h")) == ["c1"]
        assert q.matching_edge_ids(
            _arrival("srv1", (True, "tcp"), "srv2")) == ["m1"]
        assert q.matching_edge_ids(
            _arrival("web", (4480, "tcp"), "srv")) == ["m1"]
        assert q.matching_edge_ids(
            _arrival("srv", (4480, "tcp"), "srv", loop=True)) == []

    def test_nested_and_unhashable_labels_stay_generic(self):
        q = QueryGraph()
        q.add_vertex("a", "x")
        q.add_vertex("b", ["unhashable"])
        q.add_edge("n", "a", "a", ((ANY,), "x"))
        q.add_edge("u", "a", "b", (ANY, 1))
        index = tiers(q)
        assert [eid for _, eid in index.generic] == ["n", "u"]
        assert index.shapes == []
        assert q.matching_edge_ids(
            _arrival("x", ((5,), "x"), "x", loop=True)) == ["n"]
        assert q.matching_edge_ids(
            _arrival("x", (0, 1), ["unhashable"])) == ["u"]

    def test_signatures_keep_their_contract(self):
        exact, preds, has_generic = \
            self._wildcard_query().label_signatures()
        # Shaped tuple edges have no routing atom: sessions route every
        # arrival to the query, exactly as before they were compiled.
        assert exact == frozenset() and preds == frozenset()
        assert has_generic
        q = QueryGraph()
        q.add_vertex("a", Prefix("srv"))
        q.add_vertex("b", "db")
        q.add_edge("e", "a", "b", ANY)
        q.add_edge("f", "b", "b", "sql")
        exact, preds, has_generic = q.label_signatures()
        assert exact == {("db", "sql", "db", True)}
        assert preds == {(("pre", "srv"), ("any",), ("eq", "db"), False)}
        assert not has_generic

    def test_result_order_interleaves_tiers(self):
        q = QueryGraph()
        q.add_vertex("a", "ip")
        q.add_vertex("b", "ip")
        q.add_edge("g", "a", "b", ((ANY,), 1))      # generic
        q.add_edge("s", "a", "b", (ANY, 1))         # shaped, arity 2
        q.add_edge("x", "a", "b", (7, 1))           # exact
        q.add_edge("p", "a", "b", ANY)              # shaped, whole label
        q.add_edge("t", "a", "b", (7, ANY))         # shaped, arity 2
        assert q.matching_edge_ids(_arrival("ip", (7, 1), "ip")) \
            == ["s", "x", "p", "t"]
        assert q.matching_edge_ids(_arrival("ip", ((3,), 1), "ip")) \
            == ["g", "s", "p"]

    def test_mutation_invalidates_compiled_tiers(self):
        q = self._wildcard_query()
        edge = _arrival("ip", (1, 22, "tcp"), "ip")
        assert q.matching_edge_ids(edge) == []
        q.add_edge("e4", "a", "c", (ANY, 22, ANY))
        assert q.matching_edge_ids(edge) == ["e4"]


class _LegacyPickle:
    """Pickles as a ``QueryGraph`` whose state carries the pre-shape
    3-tuple label cache, the way older checkpoints stored queries."""

    def __init__(self, state):
        self.state = state

    def __reduce__(self):
        return (copyreg._reconstructor, (QueryGraph, object, None),
                self.state)


class TestCheckpointCompatibility:
    def test_old_three_tuple_cache_is_dropped_and_rebuilt(self):
        q = QueryGraph()
        q.add_vertex("a", "ip")
        q.add_vertex("b", Prefix("10."))
        q.add_edge("e1", "a", "b", (ANY, 80, "tcp"))
        q.add_edge("e2", "b", "a", "ack")
        q.add_timing_constraint("e1", "e2")
        state = {key: value for key, value in vars(q).items()}
        # The old layout: (exact dict, predicate list, generic list).
        state["_label_index"] = (
            {}, [(1, "e2", (("pre", "10."), ("eq", "ack"), ("eq", "ip"),
                            False))],
            [(0, "e1")])
        restored = pickle.loads(pickle.dumps(_LegacyPickle(state)))
        assert isinstance(restored, QueryGraph)
        assert restored._label_index is None
        fresh = QueryGraph()
        fresh.add_vertex("a", "ip")
        fresh.add_vertex("b", Prefix("10."))
        fresh.add_edge("e1", "a", "b", (ANY, 80, "tcp"))
        fresh.add_edge("e2", "b", "a", "ack")
        for edge in [_arrival("ip", (9, 80, "tcp"), "10.0.0.1"),
                     _arrival("10.2", "ack", "ip"),
                     _arrival("ip", (9, 81, "tcp"), "10.0.0.1")]:
            assert restored.matching_edge_ids(edge) \
                == fresh.matching_edge_ids(edge) == brute_force(fresh, edge)
        assert restored.label_signatures() == fresh.label_signatures()
        assert restored.timing.preq("e2") == q.timing.preq("e2")
