"""Match objects and the Definition-4 verifier (the suite's oracle checks)."""

import pickle

import pytest

from repro import Match, verify_match
from repro.core.matches import (
    build_vertex_mapping, edges_distinct, satisfies_timing,
)

from ..conftest import fig3_stream, fig5_query, make_edge


@pytest.fixture
def q():
    return fig5_query()


@pytest.fixture
def paper_match():
    """The paper's example match g at t=8: σ1,σ3,σ4,σ5,σ7,σ8 (Fig. 4a)."""
    s = {e.timestamp: e for e in fig3_stream()}
    return {
        6: s[1],   # e7→f8
        5: s[3],   # c4→e7
        4: s[4],   # d5→c4
        2: s[5],   # b3→c4
        3: s[7],   # d5→b3
        1: s[8],   # a1→b3
    }


class TestVertexMapping:
    def test_paper_match_maps_bijectively(self, q, paper_match):
        mapping = build_vertex_mapping(q, paper_match)
        assert mapping == {"a": "a1", "b": "b3", "c": "c4",
                           "d": "d5", "e": "e7", "f": "f8"}

    def test_conflicting_shared_vertex_rejected(self, q, paper_match):
        bad = dict(paper_match)
        bad[1] = make_edge("a2", "b10", 8)   # b maps to b10 vs b3 elsewhere
        assert build_vertex_mapping(q, bad) is None

    def test_injectivity_violation_rejected(self, q):
        # Both a and d would map to x1.
        partial = {1: make_edge("x1", "b3", 1), 3: make_edge("x1", "b3", 2)}
        assert build_vertex_mapping(q, partial) is None


class TestTimingCheck:
    def test_paper_match_satisfies_timing(self, q, paper_match):
        assert satisfies_timing(q, paper_match)

    def test_violated_order_detected(self, q, paper_match):
        # Swap timestamps so 3 (t=7) comes after 1 (t=8) is fine, but make
        # 6 arrive last: 6 ≺ everything must then fail.
        bad = dict(paper_match)
        bad[6] = make_edge("e7", "f8", 9.5)
        assert not satisfies_timing(q, bad)

    def test_equal_timestamps_do_not_satisfy_strict_order(self, q, paper_match):
        bad = dict(paper_match)
        bad[3] = make_edge("d5", "b3", 8)   # same t as edge matching 1
        assert not satisfies_timing(q, bad)

    def test_partial_assignments_checked_only_pairwise(self, q):
        assert satisfies_timing(q, {6: make_edge("e7", "f8", 5)})


class TestVerifyMatch:
    def test_paper_match_verifies(self, q, paper_match):
        assert verify_match(q, paper_match)

    def test_incomplete_rejected_unless_partial_allowed(self, q, paper_match):
        partial = {k: paper_match[k] for k in (6, 5, 4)}
        assert not verify_match(q, partial)
        assert verify_match(q, partial, require_complete=False)

    def test_duplicate_data_edge_rejected(self, q, paper_match):
        bad = dict(paper_match)
        bad[2] = bad[4]
        assert not edges_distinct(bad)
        assert not verify_match(q, bad)

    def test_wrong_label_rejected(self, q, paper_match):
        bad = dict(paper_match)
        bad[6] = make_edge("x9", "f8", 1)    # label x ≠ e
        assert not verify_match(q, bad)

    def test_unknown_edge_id_rejected(self, q, paper_match):
        bad = dict(paper_match)
        bad["nope"] = make_edge("e7", "f8", 0.5)
        assert not verify_match(q, bad, require_complete=False)


class TestMatchObject:
    def test_structural_equality_and_hash(self, q, paper_match):
        assert Match(paper_match) == Match(dict(paper_match))
        assert hash(Match(paper_match)) == hash(Match(dict(paper_match)))
        other = dict(paper_match)
        other[1] = make_edge("a2", "b3", 6)
        assert Match(paper_match) != Match(other)

    def test_assignment_key_is_built_on_first_use(self, paper_match):
        m = Match(paper_match)
        assert m._key is None
        twin = pickle.loads(pickle.dumps(m))
        assert twin._key is None and twin == m
        assert hash(twin) == hash(Match(dict(paper_match)))
        assert m._key is not None
        # A pickle carrying a built key restores equal and hashes alike.
        restored = pickle.loads(pickle.dumps(m))
        assert restored._key == m._key and restored == twin

    def test_accessors(self, q, paper_match):
        m = Match(paper_match)
        assert len(m) == 6
        assert m[6].endpoints == ("e7", "f8")
        assert 6 in m and "zz" not in m
        assert m.earliest_timestamp() == 1
        assert m.latest_timestamp() == 8
        assert m.uses_edge(paper_match[5])

    def test_project_and_merge_roundtrip(self, q, paper_match):
        m = Match(paper_match)
        left = m.project([6, 5, 4])
        right = m.project([1, 2, 3])
        assert left.merged_with(right) == m

    def test_merge_conflict_rejected(self, paper_match):
        m = Match(paper_match)
        other = Match({1: make_edge("a2", "b3", 6)})
        with pytest.raises(ValueError):
            m.merged_with(other)

    def test_vertex_mapping_raises_on_bad_match(self, q):
        m = Match({1: make_edge("x1", "b3", 1), 3: make_edge("x1", "b3", 2)})
        with pytest.raises(ValueError):
            m.vertex_mapping(q)
