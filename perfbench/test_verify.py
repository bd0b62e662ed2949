"""Tests of the benchmark's correctness verifier.

    python3 -m pytest perfbench/test_verify.py

Each planted fault (a wrong label, a timing-order violation, a window
overflow, a duplicate emission, a missing match) must be caught, and the
enumeration must agree with a brute-force search on a small random stream.
"""

import itertools
import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import import_program  # noqa: E402

import_program()

from repro import ANY, Prefix, QueryGraph, StreamEdge  # noqa: E402
from verify import Verifier  # noqa: E402

WINDOW = 10.0


def two_hop():
    """a -[x]-> b -[y*]-> c with e1 before e2."""
    query = QueryGraph()
    for v in "abc":
        query.add_vertex(v, "IP")
    query.add_edge("e1", "a", "b", "x")
    query.add_edge("e2", "b", "c", Prefix("y"))
    query.add_timing_constraint("e1", "e2")
    return query


def edge(src, dst, label, t):
    return StreamEdge(src, dst, src_label="IP", dst_label="IP",
                      timestamp=t, label=label)


def verifier(edges):
    return Verifier({"q": two_hop()}, edges, WINDOW)


def test_valid_match_is_enumerated_and_accepted():
    v = verifier([edge("u", "v", "x", 1.0), edge("v", "w", "y1", 2.0)])
    expected = v.enumerate()
    key = v.key("q", {"e1": 0, "e2": 1})
    assert expected == {key: 1}
    assert v.violation(key) is None
    assert v.compare([key], expected)["ok"]


def test_wrong_label_is_caught():
    v = verifier([edge("u", "v", "x", 1.0), edge("v", "w", "z", 2.0)])
    assert "label" in v.violation(v.key("q", {"e1": 0, "e2": 1}))
    assert v.enumerate() == {}


def test_timing_violation_is_caught():
    v = verifier([edge("v", "w", "y", 1.0), edge("u", "v", "x", 2.0)])
    assert "timing" in v.violation(v.key("q", {"e1": 1, "e2": 0}))
    assert v.enumerate() == {}


def test_window_overflow_is_caught():
    v = verifier([edge("u", "v", "x", 1.0), edge("v", "w", "y", 11.0)])
    assert "window" in v.violation(v.key("q", {"e1": 0, "e2": 1}))
    assert v.enumerate() == {}


def test_non_injective_mapping_is_caught():
    v = verifier([edge("u", "v", "x", 1.0), edge("v", "u", "y", 2.0)])
    assert "injective" in v.violation(v.key("q", {"e1": 0, "e2": 1}))


def test_duplicate_emission_is_caught():
    v = verifier([edge("u", "v", "x", 1.0), edge("v", "w", "y", 2.0)])
    key = v.key("q", {"e1": 0, "e2": 1})
    report = v.compare([key, key], v.enumerate())
    assert report["duplicates"] == 1 and not report["ok"]


def test_missing_match_is_caught():
    v = verifier([edge("u", "v", "x", 1.0), edge("v", "w", "y", 2.0)])
    report = v.compare([], v.enumerate())
    assert report["missing"] == 1 and not report["ok"]


def test_invalid_emission_is_reported_as_extra():
    v = verifier([edge("u", "v", "x", 1.0), edge("v", "w", "z", 2.0)])
    report = v.compare([v.key("q", {"e1": 0, "e2": 1})], v.enumerate())
    assert report["invalid"] == 1 and report["extra"] == 1


def test_enumeration_matches_brute_force():
    rng = random.Random(5)
    query = QueryGraph()
    for v in "abc":
        query.add_vertex(v, "IP")
    query.add_edge("e1", "a", "b", ANY)
    query.add_edge("e2", "b", "c", "y")
    query.add_edge("e3", "c", "a", Prefix("x"))
    query.add_timing_constraint("e1", "e3")
    edges = [edge(f"h{rng.randrange(5)}", f"h{rng.randrange(5)}",
                  rng.choice(["x1", "x2", "y", "z"]), float(t))
             for t in range(60)]
    v = Verifier({"tri": query}, edges, 15.0)
    brute = {}
    for trio in itertools.permutations(range(len(edges)), 3):
        key = v.key("tri", dict(zip(("e1", "e2", "e3"), trio)))
        if v.violation(key) is None:
            brute[key] = 1
    assert v.enumerate() == brute
    assert brute
