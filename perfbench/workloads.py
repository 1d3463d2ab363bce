"""The benchmark's three workloads, driven through the program's public API.

Each workload builds its inputs from the seed alone, sets up, warms up,
measures for the requested number of seconds and checks its outputs.  See
``README.md`` for why each workload exists and which layers it stresses.

* ``codec-resnet50`` — :class:`FedSZCompressor` alone on the paper-scale
  ResNet-50 state dict; one timed unit is a compress + decompress.
* ``fl-alexnet-2mbps`` — FedSZ rounds over a real-sleep 2 Mbps link with
  every streaming and overlap path on.
* ``fl-delta-journal`` — compute-bound rounds shipping error-feedback
  residuals through the batch ship path, with the round journal on.

A timed FL unit is one :meth:`Coordinator.run_round` call inside
:meth:`Coordinator.persistent_runtime`.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import math
import resource
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from layers import UNIT_SPAN, per_layer_metrics, pool_spinups, wrap_specs
from spans import Tracer
from stats import eqn1_seconds, percentile, psnr_db, tail_percentile

#: the error bound of every workload (REL, the paper's headline setting)
ERROR_BOUND = 1e-2
#: link of the paper's Fig. 7 at which ``eqn1_s`` is evaluated
EQN1_MBPS = 10.0
#: set-ups per untraced run; ``setup_s`` is their median
N_SETUPS = 3
#: worker threads, matching the two cores the baseline was measured on
WORKERS = 2
#: every end-to-end metric and its unit, in print order
END_TO_END = {"setup_s": "s", "round_s_p50": "s", "ratio": "x",
              "compress_MBps": "MB/s", "decompress_MBps": "MB/s",
              "eqn1_s": "s", "psnr_db": "dB", "peak_rss_mb": "MB"}


@dataclass
class Outcome:
    """What one run of a workload measured and checked."""

    #: metric name -> value; units come from END_TO_END / PER_LAYER
    metrics: "dict[str, float]" = field(default_factory=dict)
    #: printed for people, not gated: accuracy, error rate, sample counts
    info: "dict[str, object]" = field(default_factory=dict)
    checks: "list[tuple[str, bool, str]]" = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: the traced run's spans, written out as JSONL by the caller
    tracer: "Tracer | None" = None

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """Record a check; a repeated name keeps one entry that passes only
        if every repetition passed (its detail is the first failure's)."""
        for i, (seen, seen_ok, seen_detail) in enumerate(self.checks):
            if seen == name:
                if seen_ok:
                    self.checks[i] = (name, bool(ok), detail)
                return
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks) and self.failed == 0


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median(values) -> float:
    return percentile(values, 50.0)[0]


def _tail_text(values) -> str:
    q, value, n = tail_percentile(values)
    return f"p{q:g}={value:.4f} s over n={n}"


@contextlib.contextmanager
def _untraced_unit(index: int):
    yield {}


def _unit(tracer: "Tracer | None"):
    """Context manager opening one timed unit (a span when tracing)."""
    if tracer is None:
        return _untraced_unit

    @contextlib.contextmanager
    def traced(index: int):
        with tracer.span(UNIT_SPAN) as attrs:
            attrs.update(timed=True, index=index)
            yield attrs
    return traced


def check_tensor_bounds(outcome: Outcome, original: dict, decoded: dict,
                        plan) -> int:
    """Per-tensor bound check of one state-dict roundtrip.

    Lossy tensors must satisfy ``max|x - x'| <= bound``; every other tensor
    must come back bit-exact.  Returns the number of failing tensors.
    """
    from repro.compressors.base import ErrorBound

    lossy = set(plan.tensor_names)
    worst, failing = 0.0, []
    for name, array in original.items():
        out = decoded.get(name)
        if out is None or out.shape != array.shape:
            failing.append(name)
            continue
        if name in lossy:
            entry = plan[name]
            bound = ErrorBound(entry.error_bound, entry.mode).absolute(array)
            err = float(np.max(np.abs(out.astype(np.float64)
                                      - array.astype(np.float64)), initial=0.0))
            worst = max(worst, err / bound)
            if not err <= bound:
                failing.append(name)
        elif not np.array_equal(out, array):
            failing.append(name)
    outcome.check("tensor error bounds", not failing,
                  f"worst max_err/bound {worst:.4f}; "
                  f"{len(failing)} of {len(original)} tensors out of bound")
    return len(failing)


def _psnr_lossy(original: dict, decoded: dict, plan) -> float:
    names = plan.tensor_names
    return psnr_db([original[n] for n in names], [decoded[n] for n in names])


# --------------------------------------------------------------------------
# codec-resnet50
def _codec_config():
    from repro.core.config import FedSZConfig
    return FedSZConfig(lossy_compressor="sz2", error_bound=ERROR_BOUND,
                       error_mode="rel", pipeline_workers=1, backend="serial")


def _codec_setup(seed: int):
    """Inputs, compressor and a warm-up roundtrip; returns (state, codec, s)."""
    from bench_utils import trained_like_state
    from repro.core.pipeline import FedSZCompressor

    start = time.perf_counter()
    state = trained_like_state("resnet50", seed=seed, width=64,
                               blocks_per_stage=(3, 4, 6, 3))
    compressor = FedSZCompressor(_codec_config())
    # the warm-up runs every lazy path of the codec stack (imports, decode
    # tables, allocator pools) on a width-8 ResNet-50, so set-up can be
    # repeated within one run
    small = trained_like_state("resnet50", seed=seed, width=8,
                               blocks_per_stage=(1, 1, 1, 1))
    compressor.decompress_state_dict(compressor.compress_state_dict(small))
    return state, compressor, time.perf_counter() - start


def _codec_units(outcome: Outcome, state: dict, compressor, seconds: float,
                 min_units: int, max_units: "int | None", tracer=None):
    """Timed compress + decompress roundtrips; returns the per-unit lists."""
    unit = _unit(tracer)
    compress_s, decompress_s, streams = [], [], []
    report = decoded = None
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds or len(streams) < min_units) \
            and (max_units is None or len(streams) < max_units):
        outcome.attempted += len(state)
        try:
            with unit(len(streams)):
                t0 = time.perf_counter()
                bitstream, report = compressor.compress_with_report(state)
                t1 = time.perf_counter()
                decoded = compressor.decompress_state_dict(bitstream)
                t2 = time.perf_counter()
        except Exception:  # noqa: BLE001 - a failed unit is reported, not fatal
            traceback.print_exc(file=sys.stderr)
            outcome.failed += len(state)
            break
        compress_s.append(t1 - t0)
        decompress_s.append(t2 - t1)
        streams.append(bitstream)
        outcome.failed += check_tensor_bounds(outcome, state, decoded,
                                              report.plan)
    return compress_s, decompress_s, streams, report, decoded


def run_codec(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    if trace:
        return _trace_codec(outcome, seed, seconds)
    setups = []
    for _ in range(N_SETUPS):
        state = compressor = None
        gc.collect()
        state, compressor, setup_s = _codec_setup(seed)
        setups.append(setup_s)
    compress_s, decompress_s, streams, report, decoded = _codec_units(
        outcome, state, compressor, seconds, min_units=3, max_units=None)
    if not streams:
        return outcome
    outcome.check("deterministic bitstream",
                  all(s == streams[0] for s in streams),
                  f"{len(streams)} roundtrips")
    outcome.check("ratio > 1", report.ratio > 1.0, f"{report.ratio:.4f}")
    mb = report.original_bytes / 1e6
    c50, d50 = _median(compress_s), _median(decompress_s)
    outcome.metrics = {
        "setup_s": _median(setups),
        "round_s_p50": _median([c + d for c, d in zip(compress_s,
                                                       decompress_s)]),
        "ratio": report.ratio,
        "compress_MBps": mb / c50,
        "decompress_MBps": mb / d50,
        "eqn1_s": eqn1_seconds(c50, d50, report.compressed_bytes, EQN1_MBPS),
        "psnr_db": _psnr_lossy(state, decoded, report.plan),
        "peak_rss_mb": peak_rss_mb(),
    }
    outcome.info.update(input_MB=round(mb, 3), tensors=len(state),
                        setups=len(setups), round_s_tail=_tail_text(
                            [c + d for c, d in zip(compress_s, decompress_s)]))
    return outcome


def _trace_codec(outcome: Outcome, seed: int, seconds: float) -> Outcome:
    state, compressor, _ = _codec_setup(seed)
    compress_s, decompress_s, streams, _, decoded = _codec_units(
        outcome, state, compressor, seconds / 2, min_units=1, max_units=None)
    if not streams:
        return outcome
    plain = [c + d for c, d in zip(compress_s, decompress_s)]
    plain_decoded = decoded
    state = compressor = decoded = None
    gc.collect()

    tracer = Tracer()
    spinups = pool_spinups()
    with tracer.installed(wrap_specs()):
        state, compressor, _ = _codec_setup(seed)
        t_c, t_d, traced_streams, _, decoded = _codec_units(
            outcome, state, compressor, 0.0, min_units=len(streams),
            max_units=len(streams), tracer=tracer)
    same = traced_streams == streams and decoded is not None and all(
        np.array_equal(decoded[k], plain_decoded[k]) for k in plain_decoded)
    outcome.check("traced outputs bit-identical", same,
                  f"{len(streams)} roundtrips per side")
    traced = [c + d for c, d in zip(t_c, t_d)]
    outcome.tracer = tracer
    outcome.metrics = per_layer_metrics(
        tracer.spans, [], {"pool_spinups": pool_spinups() - spinups,
                           "overhead_s": _median(traced) - _median(plain)})
    return outcome


# --------------------------------------------------------------------------
# FL workloads
@dataclass(frozen=True)
class FLSpec:
    model: str
    bandwidth_mbps: float
    real_sleep: bool
    threshold: int
    journal: bool
    #: rounds 1..quality_rounds are always run; ratio, accuracy and PSNR are
    #: taken over them, so they do not depend on how many rounds fit in time
    quality_rounds: int
    sim_kwargs: dict


FL_SPECS = {
    "fl-alexnet-2mbps": FLSpec(
        model="alexnet", bandwidth_mbps=2.0, real_sleep=True, threshold=1024,
        journal=False, quality_rounds=3,
        sim_kwargs=dict(uplink="parallel", overlap="async", streaming=True,
                        streaming_encode=True, aggregate_on_arrival=True)),
    "fl-delta-journal": FLSpec(
        model="simplecnn", bandwidth_mbps=1000.0, real_sleep=False,
        threshold=128, journal=True, quality_rounds=12,
        sim_kwargs=dict(delta=True)),
}
N_CLIENTS = 8
#: deterministic RoundRecord fields compared between traced and untraced runs
DETERMINISTIC_FIELDS = ("round_index", "accuracy", "uncompressed_bytes",
                        "transmitted_bytes", "client_losses", "participants",
                        "dropped_clients", "straggler_clients", "late_clients",
                        "absorbed_clients", "delta_clients", "delta_degrades")


def deterministic_view(record) -> str:
    """The record's deterministic fields, as text that is equal iff bit-equal."""
    return repr([(name, getattr(record, name)) for name in DETERMINISTIC_FIELDS])


def _fl_config(spec: FLSpec):
    from repro.core.config import FedSZConfig
    return FedSZConfig(lossy_compressor="sz2", error_bound=ERROR_BOUND,
                       error_mode="rel", threshold=spec.threshold)


class _FLRun:
    """One set-up FL simulation held inside its persistent runtime."""

    def __init__(self, spec: FLSpec, seed: int, scratch: Path) -> None:
        from repro.core.network import NetworkModel
        from repro.data import make_dataset, train_test_split
        from repro.fl.codec import FedSZUpdateCodec
        from repro.fl.simulation import FederatedSimulation
        from repro.nn import build_model

        start = time.perf_counter()
        data = make_dataset("cifar10", n_samples=480, image_size=32, seed=seed)
        train, test = train_test_split(data, test_fraction=0.25, seed=seed + 1)
        factory = functools.partial(build_model, spec.model, num_classes=10,
                                    in_channels=3, image_size=32, seed=seed)
        self.journal_dir = tempfile.mkdtemp(prefix="journal-", dir=scratch) \
            if spec.journal else None
        self.sim = FederatedSimulation(
            factory, train, test, n_clients=N_CLIENTS,
            codec=FedSZUpdateCodec(_fl_config(spec)),
            network=NetworkModel(spec.bandwidth_mbps,
                                 simulate_delay=spec.real_sleep),
            seed=seed, max_workers=WORKERS, backend="thread",
            journal_dir=self.journal_dir, **spec.sim_kwargs)
        self._stack = contextlib.ExitStack()
        try:
            self._stack.enter_context(self.sim.coordinator.persistent_runtime())
            # round 0 is the warm-up: pools, caches and cold delta channels
            self.warmup = self.sim.run_round(0)
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - start

    def journal_bytes(self) -> int:
        if self.journal_dir is None:
            return 0
        return sum(p.stat().st_size for p in Path(self.journal_dir).rglob("*")
                   if p.is_file())

    def close(self) -> None:
        self._stack.close()
        if self.sim.journal is not None:
            self.sim.journal.close()
        if self.journal_dir is not None:
            shutil.rmtree(self.journal_dir, ignore_errors=True)


def _fl_rounds(outcome: Outcome, run: _FLRun, seconds: float, min_rounds: int,
               max_rounds: "int | None", quality_rounds: int = 0, tracer=None):
    """Timed rounds 1, 2, ...; returns (records, seconds, quality state)."""
    unit = _unit(tracer)
    records, times, quality_state = [], [], None
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds or len(records) < min_rounds) \
            and (max_rounds is None or len(records) < max_rounds):
        index = len(records) + 1
        outcome.attempted += N_CLIENTS
        try:
            with unit(index):
                t0 = time.perf_counter()
                record = run.sim.run_round(index)
                elapsed = time.perf_counter() - t0
        except Exception:  # noqa: BLE001 - a failed round is reported, not fatal
            traceback.print_exc(file=sys.stderr)
            outcome.failed += N_CLIENTS
            break
        records.append(record)
        times.append(elapsed)
        if len(records) == quality_rounds:
            quality_state = {k: np.array(v) for k, v
                             in run.sim.server.global_state().items()}
    return records, times, quality_state


def _check_rounds(outcome: Outcome, spec: FLSpec, records: list) -> None:
    everyone = list(range(N_CLIENTS))
    bad = [r.round_index for r in records
           if r.participants != everyone or r.transmitted_bytes <= 0
           or not 0.0 <= r.accuracy <= 1.0
           or not all(math.isfinite(x) for x in r.client_losses)]
    outcome.check("rounds complete", not bad,
                  f"{len(records)} rounds; malformed: {bad}")
    if spec.sim_kwargs.get("delta"):
        cold = [r.round_index for r in records if r.delta_clients != everyone]
        outcome.check("warm rounds ship residuals", not cold,
                      f"rounds without full delta participation: {cold}")


def run_fl(name: str, seed: int, seconds: float, trace: bool,
           scratch: Path) -> Outcome:
    spec = FL_SPECS[name]
    outcome = Outcome()
    if trace:
        return _trace_fl(outcome, spec, seed, seconds, scratch)
    setups, run = [], None
    for _ in range(N_SETUPS):
        if run is not None:
            run.close()
            run = None
            gc.collect()
        run = _FLRun(spec, seed, scratch)
        setups.append(run.setup_s)
    try:
        records, times, quality_state = _fl_rounds(
            outcome, run, seconds, min_rounds=spec.quality_rounds,
            max_rounds=None, quality_rounds=spec.quality_rounds)
    finally:
        run.close()
    if len(records) < spec.quality_rounds:
        return outcome
    _check_rounds(outcome, spec, records)
    window = records[:spec.quality_rounds]
    ratio = sum(r.uncompressed_bytes for r in window) \
        / sum(r.transmitted_bytes for r in window)
    outcome.check("ratio > 1", ratio > 1.0, f"{ratio:.4f}")

    # the codec's quality on the model as trained, through a fresh compressor
    from repro.core.pipeline import FedSZCompressor
    compressor = FedSZCompressor(_fl_config(spec))
    bitstream, report = compressor.compress_with_report(quality_state)
    decoded = compressor.decompress_state_dict(bitstream)
    outcome.failed += check_tensor_bounds(outcome, quality_state, decoded,
                                          report.plan)

    def per_client(record, value):
        return value / len(record.participants)

    compress = [per_client(r, r.uncompressed_bytes) / 1e6 / r.mean_encode_seconds
                for r in records]
    decompress = [per_client(r, r.uncompressed_bytes) / 1e6 / r.mean_decode_seconds
                  for r in records]
    eqn1 = [eqn1_seconds(r.mean_encode_seconds, r.mean_decode_seconds,
                         per_client(r, r.transmitted_bytes), EQN1_MBPS)
            for r in records]
    outcome.metrics = {
        "setup_s": _median(setups),
        "round_s_p50": _median(times),
        "ratio": ratio,
        "compress_MBps": _median(compress),
        "decompress_MBps": _median(decompress),
        "eqn1_s": _median(eqn1),
        "psnr_db": _psnr_lossy(quality_state, decoded, report.plan),
        "peak_rss_mb": peak_rss_mb(),
    }
    outcome.info.update(
        accuracy=window[-1].accuracy, accuracy_round=spec.quality_rounds,
        setups=len(setups), round_s_tail=_tail_text(times))
    return outcome


def _trace_fl(outcome: Outcome, spec: FLSpec, seed: int, seconds: float,
              scratch: Path) -> Outcome:
    run = _FLRun(spec, seed, scratch)
    try:
        plain, plain_times, _ = _fl_rounds(outcome, run, seconds / 2,
                                           min_rounds=2, max_rounds=None)
        plain_warmup = run.warmup
    finally:
        run.close()
    run = None
    gc.collect()
    if not plain:
        return outcome

    tracer = Tracer()
    spinups = pool_spinups()
    with tracer.installed(wrap_specs()):
        run = _FLRun(spec, seed, scratch)
        try:
            before = run.journal_bytes()
            traced, traced_times, _ = _fl_rounds(
                outcome, run, 0.0, min_rounds=len(plain),
                max_rounds=len(plain), tracer=tracer)
            written = run.journal_bytes() - before
            warmup = run.warmup
        finally:
            run.close()
    _check_rounds(outcome, spec, traced)
    same = [deterministic_view(a) == deterministic_view(b)
            for a, b in zip([plain_warmup] + plain, [warmup] + traced)]
    outcome.check("traced round records bit-identical",
                  len(traced) == len(plain) and all(same),
                  f"{len(same)} rounds compared")
    outcome.tracer = tracer
    counters = (traced[-1].codebook_cache or {}) if traced else {}
    base = warmup.codebook_cache or {}
    outcome.metrics = per_layer_metrics(
        tracer.spans, traced,
        {"pool_spinups": pool_spinups() - spinups, "journal_bytes": written,
         "overhead_s": _median(traced_times) - _median(plain_times),
         "codebook_counters": {k: counters.get(k, 0) - base.get(k, 0)
                               for k in counters}})
    return outcome


WORKLOADS = ("codec-resnet50", "fl-alexnet-2mbps", "fl-delta-journal")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scratch: Path) -> Outcome:
    """Run one workload; ``scratch`` is a directory inside the checkout."""
    if name == "codec-resnet50":
        return run_codec(seed, seconds, trace)
    return run_fl(name, seed, seconds, trace, scratch)
