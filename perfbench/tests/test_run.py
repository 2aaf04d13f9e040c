"""Harness rules: the tail percentile and what counts as a failure."""

import run
import workloads


def test_tail_keeps_ten_samples_beyond():
    values = [float(i) for i in range(1, 41)]
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == 10
    assert pct == 75.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_reported_error_fails_without_being_wrong():
    inv = workloads.make_pass("point-queries", 1)[0]
    ok, correct, _ = run.judge(inv, 2, "", "config error: order-4 stencil disagrees\n")
    assert (ok, correct) == (False, True)
    ok, correct, _ = run.judge(inv, 1, "", "Traceback (most recent call last):\n  ...\nKeyError: 'x'\n")
    assert (ok, correct) == (False, False)
    ok, correct, _ = run.judge(inv, 0, "# command=cumulants x\nwrong header\n", "")
    assert (ok, correct) == (False, False)
