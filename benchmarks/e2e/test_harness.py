"""Tests of the end-to-end benchmark's own machinery.

Not part of the tier-1 suite; run explicitly from the repository root::

    python3 -m pytest benchmarks/e2e/test_harness.py -q
"""

from __future__ import annotations

import json
import math

import pytest

import run  # first: it puts src/ on sys.path
from compare import judge
from harness import BenchError, Connection, Op, Record, nearest_rank
from repro.core.compiled import compile_dictionary
from repro.service import ServiceError
from repro.service.sessions import SessionScanner
from tracing import layer_table, self_times
from workloads import WORKLOADS, Flows, Packets, sampled


# -- quantiles ----------------------------------------------------------------------


def test_nearest_rank_known_arrays():
    hundred = list(range(1, 101))
    assert nearest_rank(hundred, 0.50) == 50
    assert nearest_rank(hundred, 0.99) == 99
    assert nearest_rank(hundred, 1.0) == 100
    assert nearest_rank([1, 2, 3, 4], 0.5) == 2
    assert nearest_rank([1, 2, 3, 4], 0.99) == 4
    assert nearest_rank([7.5], 0.01) == 7.5
    with pytest.raises(ValueError):
        nearest_rank([], 0.5)
    with pytest.raises(ValueError):
        nearest_rank([1], 0)


# -- failures -----------------------------------------------------------------------


class _RefusingClient:
    """Stands in for ServiceClient: every request is refused."""

    def __init__(self, code):
        self.code = code

    def scan(self, payload):
        raise ServiceError("refused", code=self.code)


def _ops():
    while True:
        yield Op("scan", nbytes=3), b"abc"


def test_refused_reply_counts_as_error():
    conn = Connection(_RefusingClient("busy"), _ops())
    conn.step(0)
    conn.step(0)
    assert [r.error for r in conn.records] == ["busy", "busy"]
    assert not conn.dead          # busy is retryable; the loop goes on
    transport = Connection(_RefusingClient("transport"), _ops())
    transport.step(0)
    assert transport.dead


def _live(records):
    return run.Live(records, [1.0], {}, 1.0, 0.0, 0.0, False)


def test_refused_request_misses_every_latency_limit():
    ok = [Record(0, Op("scan", nbytes=1), latency=0.001 * (i + 1))
          for i in range(99)]
    refused = Record(0, Op("scan", nbytes=1), latency=0.0, error="busy")
    e2e = run.end_to_end(_live(ok + [refused]), [0.1])
    # The refusal sorts last: p99 is the 99th of 100, not the refusal.
    assert e2e["values"]["p99_ms"] == pytest.approx(99.0)
    assert e2e["values"]["req_per_s"] == 99      # refusals do not count
    with pytest.raises(BenchError):
        run.end_to_end(_live(ok[:10] + [refused]), [0.1])


# -- spans --------------------------------------------------------------------------


def test_self_time_is_span_minus_children():
    spans = [
        [0, "daemon.request", None, 0, 100],
        [0, "scan.execute", 0, 10, 30],
        [0, "protocol.encode_frame", 0, 25, 50],   # overlaps its sibling
        [0, "planner.plan_backend", 1, 12, 15],
        [0, "prefilter.screen", None, 200, 260],   # side span
    ]
    # The root's children cover [10, 50] once, however they overlap.
    assert self_times(spans) == [60, 17, 25, 3, 60]


def test_layer_table_sums_to_the_request():
    spans = [
        [0, "daemon.request", None, 0, 100],
        [0, "protocol.split_body", 0, 0, 5],
        [0, "policy.Tenant.scan_packet", 0, 10, 90],
        [0, "policy.verdict", 2, 80, 90],
        [0, "protocol.encode_frame", 0, 90, 96],
        [1, "daemon.request", None, 200, 240],
        [1, "protocol.split_body", 5, 200, 210],
        [1, "prefilter.screen", None, 300, 360],   # side span: not summed
    ]
    layers, request_us = layer_table(spans)
    assert request_us == pytest.approx(0.07)
    assert layers == pytest.approx({"daemon": 0.0195, "protocol": 0.0105,
                                    "policy": 0.04})
    assert sum(layers.values()) == pytest.approx(request_us)


# -- correctness checks -------------------------------------------------------------


def test_scan_check_trips_on_wrong_count(tmp_path):
    wl = Packets(3, tmp_path)
    op = Op("scan", key=(0, 5), sample=True)
    expected = wl.scan_reference(op.key)
    good = Record(0, op, 0.001, matches=expected, generation=1)
    bad = Record(0, op, 0.001, matches=expected + 1, generation=1)
    assert wl.check([good], {}) == []
    failures = wl.check([bad], {})
    assert len(failures) == 1 and "reference" in failures[0]


def test_flow_check_trips_on_wrong_total(tmp_path):
    wl = Flows(3, tmp_path)
    stream = wl.stream(1)
    ops = [next(stream)[0] for _ in range(2000)]
    flow = next(op.flow for op in ops if sampled(wl.seed, op.flow))
    mine = [op for op in ops if op.flow == flow]
    scanner = SessionScanner(compile_dictionary(
        wl.tenant_dictionaries()[mine[0].tenant]))
    records = []
    for op in mine:
        _, total, _ = scanner.scan_packet(flow, wl.payload(op.key))
        records.append(Record(0, op, 0.001, flow_total=total,
                              action="forward"))
    stats = {"metrics": {"tenants": {"t": {"actions": {
        "forward": len(records)}}}}}
    assert wl.check(records, stats) == []
    records[-1].flow_total += 1
    assert any("reference" in f for f in wl.check(records, stats))


# -- compare.py ---------------------------------------------------------------------


def test_compare_verdicts():
    base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    assert judge(base, base, 0.1, True)["verdict"] == "unchanged"
    assert judge(base, [v * 0.8 for v in base], 0.1, True)["verdict"] \
        == "worse"
    assert judge(base, [v * 1.2 for v in base], 0.1, True)["verdict"] \
        == "better"
    wide = [50, 150, 80, 120, 100, 60, 140, 90, 110, 100]
    assert judge(base, wide, 0.1, True)["verdict"] == "unresolved"
    # Lower-is-better metrics flip the direction.
    assert judge(base, [v * 0.8 for v in base], 0.1, False)["verdict"] \
        == "better"


# -- the benchmark end to end, tiny -------------------------------------------------


def test_benchmark_json_names_every_workload():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "trace"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run(name, trace):
    result = run.run_workload(name, seed=5, seconds=0.6, trace=trace,
                              trials=2, warmup=0.2, launches=1,
                              replay_n=3 if name == "bulk" else 30)
    assert result.correct, result.failures
    assert result.failed == 0
    assert set(result.units) <= set(result.metrics)
    for unit_name in result.units:
        assert math.isfinite(result.metrics[unit_name]), unit_name
    json.loads(result.line())
