"""Self-test of the benchmark's tracing and output gate.

Run from the repository root with ``python -m pytest bench/test_bench.py``.
At seed 0 on every workload, each traced span count must equal the call
count cProfile reports for the same function, so no call path escapes
the wrappers; two traced runs of one seed must count the same; tracing
must not change a report byte.
"""

import cProfile
import inspect
import pstats

import pytest

import run as bench
import tracer as tracing

hk, _np, _scipy = bench.import_library()


def _traced(workload, seed):
    tr = tracing.Tracer()
    tr.install()
    try:
        it = bench.run_iteration(hk, workload, seed, probe=False)
    finally:
        tr.uninstall()
    return tr, it


def _profiled_calls(workload, seed):
    profile = cProfile.Profile()
    profile.enable()
    try:
        it = bench.run_iteration(hk, workload, seed, probe=False)
    finally:
        profile.disable()
    calls = {key: nc for key, (_, nc, *_) in pstats.Stats(profile).stats.items()}
    return calls, it


def _code_key(fn):
    code = inspect.unwrap(fn).__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_traced_counts_equal_cprofile_calls(name):
    workload = bench.WORKLOADS[name]
    tr, traced = _traced(workload, 0)
    assert bench.gate(workload, traced) is None
    calls, plain = _profiled_calls(workload, 0)
    assert traced.text == plain.text

    differ = {}
    for i, span in enumerate(tr.names):
        target = tr.targets[i]
        if target is None:  # a factory whose closure this workload never built
            continue
        want = calls.get(_code_key(target), 0)
        if tr.count[i] != want:
            differ[span] = (tr.count[i], want)
    assert not differ, f"traced vs cProfile call counts: {differ}"
    assert sum(tr.count) > 0

    again, _ = _traced(workload, 0)
    assert again.counts() == tr.counts()
    assert again.nested == tr.nested


def test_uninstall_restores_every_patch():
    workload = bench.WORKLOADS["quotient-newton"]
    tr, _ = _traced(workload, 0)
    tr.reset()
    bench.run_iteration(hk, workload, 1)
    assert sum(tr.count) == 0


def test_gate_rejects_a_missing_check():
    workload = bench.WORKLOADS["quotient-newton"]
    it = bench.run_iteration(hk, workload, 0)
    assert bench.gate(workload, it) is None
    it.records = it.records[:-1]
    assert "check ids differ" in bench.gate(workload, it)
