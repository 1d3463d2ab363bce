"""Tests for the benchmark's own arithmetic and its tracer.

Run with the rest of the suite (``PYTHONPATH=src python -m pytest -q``) or
alone (``python -m pytest perfbench -q``).
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

_HERE = Path(__file__).resolve().parent
for _path in (_HERE.parent / "src", _HERE.parent / "benchmarks", _HERE):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from layers import PER_LAYER, UNIT_SPAN, per_layer_metrics, wrap_specs  # noqa: E402
from spans import Span, Tracer, covered_seconds, self_times  # noqa: E402
from stats import (eqn1_seconds, percentile, psnr_db, quartiles,  # noqa: E402
                   tail_percentile, wmw_effect)
from workloads import END_TO_END, deterministic_view  # noqa: E402


def _span(sid, name, start, end, parent=None, thread=1, **attrs):
    return Span(sid, name, start, end, parent, thread, attrs)


# -- self time ---------------------------------------------------------------
def test_self_time_of_nested_spans():
    spans = [_span(1, "a", 0.0, 10.0), _span(2, "b", 2.0, 5.0, parent=1),
             _span(3, "c", 3.0, 4.0, parent=2)]
    assert self_times(spans) == {1: 7.0, 2: 2.0, 3: 1.0}


def test_self_time_counts_overlapping_cross_thread_children_once():
    # two pool threads overlap on [4, 6]; a third child runs past the parent
    spans = [_span(1, "round", 0.0, 10.0, thread=1),
             _span(2, "train", 2.0, 6.0, parent=1, thread=2),
             _span(3, "train", 4.0, 8.0, parent=1, thread=3),
             _span(4, "ship", 9.0, 12.0, parent=1, thread=2)]
    assert covered_seconds(0.0, 10.0, [(2.0, 6.0), (4.0, 8.0), (9.0, 12.0)]) == 7.0
    assert self_times(spans)[1] == pytest.approx(3.0)


def test_tracer_links_pool_thread_spans_to_the_submitting_span():
    tracer = Tracer()

    def task():
        with tracer.span("inner"):
            pass

    with tracer.installed([]):
        with tracer.span("outer"):
            with ThreadPoolExecutor(max_workers=1) as pool:
                pool.submit(task).result(timeout=10)
    inner, outer = tracer.spans
    assert (inner.name, outer.name) == ("inner", "outer")
    assert inner.parent == outer.id
    assert inner.thread != outer.thread


def test_generator_wrapper_times_each_step_and_keeps_the_return_value():
    tracer = Tracer()

    def produce():
        yield 1
        yield 2
        return "done"

    wrapped = tracer._wrap(produce, "gen", None)

    def drain():
        result = yield from wrapped()
        return result

    steps = list(drain())
    assert steps == [1, 2]
    assert [s.name for s in tracer.spans] == ["gen"] * 3


# -- percentiles -------------------------------------------------------------
def test_percentile_reports_the_sample_count():
    assert percentile(list(range(1, 101)), 50.0) == (50.5, 100)
    assert percentile([3.0], 90.0) == (3.0, 1)
    with pytest.raises(ValueError):
        percentile([], 50.0)


def test_tail_percentile_needs_ten_samples_beyond_it():
    q, value, n = tail_percentile(list(range(1, 101)))
    assert (q, n) == (90.0, 100)
    assert value == pytest.approx(90.1)
    assert tail_percentile(list(range(20)))[0] == 50.0
    # too small for any tail: the median, flagged as p50
    assert tail_percentile([1.0, 2.0, 9.0]) == (50.0, 2.0, 3)


def test_quartiles_match_statistics_quantiles():
    rng = np.random.default_rng(0)
    for n in (2, 3, 4, 5, 10, 11):
        values = list(rng.normal(size=n))
        q1, med, q3 = quartiles(values)
        expected = statistics.quantiles(values, n=4)
        assert [q1, med, q3] == pytest.approx(expected, rel=1e-12, abs=1e-12)


# -- Eqn. 1 and PSNR ---------------------------------------------------------
def test_eqn1_against_hand_computed_value():
    # 1.25 MB over 10 Mbps is exactly one second on the wire
    assert eqn1_seconds(1.0, 2.0, 1.25e6, 10.0) == 4.0
    assert eqn1_seconds(0.0, 0.0, 250_000, 2.0) == 1.0
    with pytest.raises(ValueError):
        eqn1_seconds(1.0, 1.0, 1.0, 0.0)


def test_psnr_against_hand_computed_value():
    original = [np.array([0.0, 1.0]), np.array([2.0, 3.0], dtype=np.float32)]
    decoded = [np.array([0.0, 1.0]), np.array([2.0, 3.3])]
    # range 3, MSE 0.09 / 4: 20 log10(3) - 10 log10(0.0225)
    assert psnr_db(original, decoded) == pytest.approx(26.0205999, abs=1e-6)
    assert psnr_db(original, original) == math.inf


def test_wmw_effect():
    assert wmw_effect([3, 4, 5], [1, 2, 3]) == pytest.approx(8.5 / 9)
    assert wmw_effect([1, 2], [1, 2]) == 0.5
    assert wmw_effect([1], [5]) == 0.0


# -- per-layer derivation ----------------------------------------------------
def test_per_layer_metrics_count_only_timed_units():
    spans = [
        _span(1, UNIT_SPAN, 0.0, 10.0, timed=True),
        _span(2, "nn.train", 0.0, 4.0, parent=1, samples=40),
        _span(3, "transport.ship", 4.0, 9.0, parent=1, transfer=2.0,
              payload=100, encode_overlap=0.5, first_byte=0.25),
        _span(4, "core.pipeline.compress", 5.0, 6.5, parent=3),
        _span(5, "compressors.quantize", 5.5, 6.0, parent=4, symbols=10,
              outliers=1),
        # the warm-up unit is not timed: none of its spans count
        _span(6, UNIT_SPAN, 10.0, 20.0, timed=False),
        _span(7, "nn.train", 10.0, 19.0, parent=6, samples=40),
    ]
    m = per_layer_metrics(spans, [], {"pool_spinups": 1})
    assert set(m) == set(PER_LAYER)
    assert m["nn.train_s"] == 4.0
    assert m["nn.train_samples_per_s"] == 10.0
    assert m["coordinator.unattributed_frac"] == pytest.approx(0.1)
    assert m["core.pipeline.self_s"] == pytest.approx(1.0)
    assert m["transport.idle_frac"] == pytest.approx(1.0 - 1.5 / 5.0)
    assert m["transport.ship_s_p50"] == 5.0
    assert m["transport.payload_bytes"] == 100
    assert m["compressors.outlier_frac"] == pytest.approx(0.1)
    assert m["parallel.pool_spinups"] == 1.0


def test_deterministic_view_sees_a_one_bit_change():
    from repro.fl.coordinator.records import RoundRecord

    def record(loss):
        return RoundRecord(round_index=1, accuracy=0.5, mean_train_seconds=1.0,
                           mean_encode_seconds=0.1, mean_decode_seconds=0.1,
                           validation_seconds=0.1, uncompressed_bytes=10,
                           transmitted_bytes=5, communication_seconds=1.0,
                           client_losses=[loss], participants=[0])

    a = record(1.0)
    b = record(float(np.nextafter(1.0, 2.0)))
    assert deterministic_view(a) == deterministic_view(record(1.0))
    assert deterministic_view(a) != deterministic_view(b)
    # timings are measurements, not deterministic fields
    a.mean_train_seconds = 9.0
    assert deterministic_view(a) == deterministic_view(record(1.0))


# -- wrappers ----------------------------------------------------------------
def _namespaces():
    """Every patchable namespace: repro modules and the spec owner classes."""
    spaces = {name: module for name, module in sys.modules.items()
              if name.split(".")[0] == "repro" and module is not None}
    for spec in wrap_specs():
        if isinstance(spec.owner, type):
            spaces[spec.owner.__qualname__] = spec.owner
    spaces["ThreadPoolExecutor"] = ThreadPoolExecutor
    return {name: dict(vars(space)) for name, space in spaces.items()}


def test_wrappers_are_restored_after_a_traced_run():
    from repro.core.config import FedSZConfig
    from repro.core.network import NetworkModel
    from repro.core.pipeline import FedSZCompressor
    from repro.data import make_dataset, train_test_split
    from repro.fl.codec import FedSZUpdateCodec
    from repro.fl.simulation import FederatedSimulation
    from repro.nn import build_model

    before = _namespaces()
    tracer = Tracer()
    rng = np.random.default_rng(1)
    state = {"fc.weight": rng.normal(0, 0.05, (64, 64)).astype(np.float32),
             "fc.bias": rng.normal(0, 0.05, 64).astype(np.float32)}
    with tracer.installed(wrap_specs()):
        compressor = FedSZCompressor(FedSZConfig(error_bound=1e-2))
        compressor.decompress_state_dict(compressor.compress_state_dict(state))
        train, test = train_test_split(
            make_dataset("cifar10", n_samples=48, image_size=8, seed=0), seed=1)
        sim = FederatedSimulation(
            lambda: build_model("mlp", image_size=8, seed=0), train, test,
            n_clients=2, codec=FedSZUpdateCodec(FedSZConfig(error_bound=1e-2)),
            network=NetworkModel(1000.0), max_workers=2, backend="thread",
            overlap="async", streaming=True, streaming_encode=True,
            aggregate_on_arrival=True)
        with tracer.span(UNIT_SPAN):
            sim.run(1)
    after = _namespaces()
    names = {span.name for span in tracer.spans}
    assert {"nn.train", "nn.eval", "transport.ship", "core.pipeline.compress",
            "compressors.quantize", "aggregator.fold"} <= names
    assert before.keys() == after.keys()
    for space, attrs in before.items():
        changed = [key for key, value in attrs.items()
                   if after[space].get(key) is not value]
        assert not changed, f"{space}: {changed} not restored"


def test_benchmark_json_lists_every_metric_with_its_unit():
    spec = json.loads((_HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
