"""Workload generators are deterministic and the seed never changes the work."""

import math

import pytest

import workloads


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    first = workloads.make_pass(name, 7)
    again = workloads.make_pass(name, 7)
    assert [inv.argv for inv in first] == [inv.argv for inv in again]
    assert [inv.spec for inv in first] == [inv.spec for inv in again]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_changes_inputs_not_work(name):
    a = workloads.make_pass(name, 1)
    b = workloads.make_pass(name, 2)
    assert [inv.argv for inv in a] != [inv.argv for inv in b]
    assert [(inv.command, inv.items) for inv in a] == [(inv.command, inv.items) for inv in b]


def test_point_queries_cover_the_stated_ranges():
    queries = workloads.make_pass("point-queries", 3)
    assert len(queries) == workloads.QUERIES_PER_PASS
    cs = [q for q in queries if q.spec.get("cs_alpha") is not None]
    assert len(cs) == workloads.CS_QUERIES_PER_PASS
    assert all(q.spec["theta"] <= 0.5 for q in cs)
    lo, hi = (math.log(g) for g in workloads.GAP_RANGE)
    for key in ("nu1", "nu2"):
        # one query in each of the equal slices of log-gap
        slices = sorted(int((math.log(q.spec[key]) - lo) / (hi - lo) * len(queries)) for q in queries)
        assert slices == list(range(len(queries)))


def test_argv_round_trips_floats():
    (inv,) = workloads.make_pass("grid-map", 4)
    args = dict(zip(inv.argv[1::2], inv.argv[2::2]))
    assert float(args["--beta"]) == inv.spec["beta"]
    assert float(args["--nu2"]) == inv.spec["nu2"]
