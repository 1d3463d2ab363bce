"""The profiling subsystem: CodecProfiler, TensorProfile, ProfiledPolicy,
the verbatim fallback tier, and the profiled policy end to end through the
plan pipeline and the heterogeneous round engine.

Determinism is the backbone of every test here: with a cost model injected,
profiles — and therefore plans and bitstreams — are pure functions of the
tensor bytes, so they must be identical across execution backends at any
worker count.  Wall-clock speedup assertions are gated on
``os.cpu_count() > 1`` (single-core CI container convention).
"""

from __future__ import annotations

import json
import os
import pickle
import time
from dataclasses import dataclass

import numpy as np
import pytest

from repro.compressors.base import ErrorBoundMode
from repro.compressors.registry import available_lossy, get_lossy
from repro.core import (
    AnalyticCostModel,
    CodecProfiler,
    DeviceProfile,
    FedSZCompressor,
    FedSZConfig,
    NetworkModel,
    ProfiledPolicy,
    TensorProfile,
    get_policy,
    make_client_networks,
    select_compressor,
)
from repro.core.plan import PLAN_PROVENANCE_KEY, pack_plan, unpack_plan
from repro.core.profiling import CandidateMeasurement, CostModel, resolve_cost_model
from repro.fl import FederatedSimulation, FedSZUpdateCodec
from repro.nn import build_model

BACKENDS = ("serial", "thread", "process")


class CountingCostModel(CostModel):
    """Deterministic cost model that records every timing request."""

    label = "counting"

    def __init__(self) -> None:
        self.calls: list[tuple[str, int, int]] = []

    def roundtrip_seconds(self, codec, original_bytes, compressed_bytes):
        self.calls.append((codec, original_bytes, compressed_bytes))
        return 0.01, 0.005


@pytest.fixture
def tensors(rng):
    weight = rng.normal(0.0, 0.05, size=(120, 100)).astype(np.float32)
    other = np.linspace(-1.0, 1.0, 6_000, dtype=np.float32).reshape(60, 100)
    return {"layer1.weight": weight, "layer2.weight": other}


# ---------------------------------------------------------------------------
# Sampling and caching
# ---------------------------------------------------------------------------

class TestSampling:
    def test_small_tensors_profile_whole(self, tensors):
        profiler = CodecProfiler(sample_limit=1 << 20)
        sample = profiler.sample("layer1.weight", tensors["layer1.weight"])
        np.testing.assert_array_equal(sample, tensors["layer1.weight"].ravel())

    def test_sample_is_deterministic_and_contiguous(self, rng):
        data = rng.normal(size=100_000).astype(np.float32)
        profiler = CodecProfiler(sample_limit=4_096, seed=7)
        first = profiler.sample("w", data)
        second = CodecProfiler(sample_limit=4_096, seed=7).sample("w", data)
        assert first.size == 4_096
        np.testing.assert_array_equal(first, second)
        # contiguous window: it appears verbatim inside the flat data
        flat = data.ravel()
        starts = np.flatnonzero(flat == first[0])
        assert any(np.array_equal(flat[s:s + first.size], first) for s in starts)

    def test_sample_depends_on_seed_but_not_name(self, rng):
        data = rng.normal(size=100_000).astype(np.float32)
        base = CodecProfiler(sample_limit=4_096, seed=0).sample("w", data)
        other_seed = CodecProfiler(sample_limit=4_096, seed=1).sample("w", data)
        other_name = CodecProfiler(sample_limit=4_096, seed=0).sample("v", data)
        assert not np.array_equal(base, other_seed)
        # name-free on purpose: byte-identical (weight-tied) tensors must
        # sample the same window so the content-keyed cache unifies them
        np.testing.assert_array_equal(base, other_name)

    def test_profile_records_sample_and_tensor_sizes(self, rng):
        data = rng.normal(size=50_000).astype(np.float32)
        profiler = CodecProfiler(sample_limit=2_048, cost_model="analytic")
        profile = profiler.profile_tensor("w", data)
        assert profile.sample_elements == 2_048
        assert profile.nbytes == data.nbytes
        assert profile.scale_factor == pytest.approx(50_000 / 2_048)


class TestCaching:
    def test_cache_hit_skips_remeasurement(self, tensors):
        cost_model = CountingCostModel()
        profiler = CodecProfiler(cost_model=cost_model)
        first = profiler.profile_tensors(tensors)
        measured = len(cost_model.calls)
        assert measured == len(tensors) * len(profiler.grid)
        # same content again (fresh array objects): pure cache hits
        again = profiler.profile_tensors({k: v.copy() for k, v in tensors.items()})
        assert len(cost_model.calls) == measured
        info = profiler.cache_info()
        assert info["hits"] == len(tensors)
        assert info["misses"] == len(tensors)
        for name in tensors:
            assert first[name].measurements is again[name].measurements

    def test_cache_key_is_content_not_name(self, tensors):
        cost_model = CountingCostModel()
        profiler = CodecProfiler(cost_model=cost_model)
        profiler.profile_tensor("a", tensors["layer1.weight"])
        measured = len(cost_model.calls)
        profile = profiler.profile_tensor("b", tensors["layer1.weight"].copy())
        assert len(cost_model.calls) == measured  # tied tensors share measurements
        assert profile.name == "b"

    def test_tied_tensors_above_sample_limit_share_one_measurement(self, rng):
        # the sampled window is content-seeded, so even tensors larger than
        # the sample limit unify in the cache when their bytes are identical
        data = rng.normal(size=50_000).astype(np.float32)
        cost_model = CountingCostModel()
        profiler = CodecProfiler(sample_limit=2_048, cost_model=cost_model)
        profiles = profiler.profile_tensors({"encoder.weight": data,
                                             "decoder.weight": data.copy()})
        assert len(cost_model.calls) == len(profiler.grid)
        assert profiler.cache_info() == {"hits": 1, "misses": 1, "drifts": 0,
                                         "profiles": 1}
        assert profiles["encoder.weight"].measurements \
            is profiles["decoder.weight"].measurements

    def test_different_content_remeasures(self, tensors):
        cost_model = CountingCostModel()
        profiler = CodecProfiler(cost_model=cost_model)
        profiler.profile_tensor("w", tensors["layer1.weight"])
        measured = len(cost_model.calls)
        profiler.profile_tensor("w", tensors["layer1.weight"] * 1.5)
        assert len(cost_model.calls) == 2 * measured

    def test_profiler_survives_pickling_with_cache(self, tensors):
        profiler = CodecProfiler(cost_model="analytic")
        before = profiler.profile_tensors(tensors)
        clone = pickle.loads(pickle.dumps(profiler))
        after = clone.profile_tensors(tensors)
        assert clone.cache_info()["hits"] == profiler.cache_info()["misses"]
        for name in tensors:
            assert before[name].measurements == after[name].measurements


# ---------------------------------------------------------------------------
# Backend x worker equivalence of the candidate-grid fan-out
# ---------------------------------------------------------------------------

class TestFanOutEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", (1, 4))
    def test_profiles_identical_on_every_backend(self, tensors, backend, workers):
        reference = CodecProfiler(cost_model="analytic").profile_tensors(tensors)
        profiler = CodecProfiler(cost_model="analytic", backend=backend,
                                 workers=workers)
        profiles = profiler.profile_tensors(tensors)
        assert profiles == reference

    @pytest.mark.skipif((os.cpu_count() or 1) < 2,
                        reason="speedup needs more than one core")
    def test_process_fanout_beats_serial_on_multicore(self, rng):
        # 4 x 300k floats make the serial run (~1 s on 2 cores) over 10x a
        # process pool's start-up (~0.05-0.08 s); at 4 x 40k floats the two
        # were the same size and the comparison was a coin toss.  Trials
        # alternate sides, and the minimum of 3 per side discounts a trial
        # that a busy host slowed down.
        data = {f"w{i}": rng.normal(size=300_000).astype(np.float32) for i in range(4)}

        def wall(**backend) -> float:
            start = time.perf_counter()
            CodecProfiler(sample_limit=None, candidates=("sz3",),
                          error_bounds=(1e-2, 1e-3, 1e-4), **backend).profile_tensors(data)
            return time.perf_counter() - start

        serial, process = [], []
        for _ in range(3):
            serial.append(wall())
            process.append(wall(backend="process", workers=os.cpu_count()))
        assert min(process) < min(serial)


# ---------------------------------------------------------------------------
# TensorProfile estimates and the Pareto frontier
# ---------------------------------------------------------------------------

def _measurement(codec, bound, ratio, compress_s, decompress_s,
                 sample_bytes=1_000_000):
    return CandidateMeasurement(codec=codec, error_bound=bound,
                                mode=ErrorBoundMode.REL,
                                sample_bytes=sample_bytes,
                                compressed_bytes=int(sample_bytes / ratio),
                                compress_seconds=compress_s,
                                decompress_seconds=decompress_s,
                                max_abs_error=bound / 2)


def _profile(measurements, nbytes=1_000_000):
    return TensorProfile(name="w", shape=(nbytes // 4,), dtype="float32",
                         nbytes=nbytes, sample_elements=nbytes // 4,
                         sample_bytes=nbytes, measurements=tuple(measurements))


class TestTensorProfile:
    def test_pareto_frontier_drops_dominated(self):
        best_ratio = _measurement("sz2", 1e-2, ratio=10.0, compress_s=1.0, decompress_s=0.5)
        fastest = _measurement("szx", 1e-2, ratio=4.0, compress_s=0.1, decompress_s=0.05)
        dominated = _measurement("zfp", 1e-2, ratio=3.0, compress_s=0.2, decompress_s=0.2)
        frontier = _profile([best_ratio, fastest, dominated]).pareto_frontier()
        assert frontier == (best_ratio, fastest)

    def test_best_for_link_prefers_ratio_on_slow_links(self):
        high_ratio = _measurement("sz2", 1e-2, ratio=10.0, compress_s=1.0, decompress_s=0.5)
        fast = _measurement("szx", 1e-2, ratio=4.0, compress_s=0.1, decompress_s=0.05)
        profile = _profile([high_ratio, fast])
        # at 0.25 Mbps: sz2 models 1.5 + 3.2 = 4.7s, szx 0.15 + 8.0 = 8.15s
        slow_pick, _ = profile.best_for_link(bandwidth_mbps=0.25)
        # at 30 Mbps: sz2 models 1.53s, szx 0.22s against a 0.27s raw baseline
        fast_pick, _ = profile.best_for_link(bandwidth_mbps=30.0)
        assert slow_pick is high_ratio
        assert fast_pick is fast

    def test_best_for_link_returns_none_above_crossover(self):
        m = _measurement("sz2", 1e-2, ratio=10.0, compress_s=1.0, decompress_s=0.5)
        profile = _profile([m])
        pick, modeled = profile.best_for_link(bandwidth_mbps=1e6)
        assert pick is None
        assert modeled == pytest.approx(profile.uncompressed_seconds(1e6))

    def test_best_for_link_honours_bound_cap(self):
        loose = _measurement("sz2", 1e-1, ratio=20.0, compress_s=0.1, decompress_s=0.1)
        tight = _measurement("sz2", 1e-3, ratio=5.0, compress_s=0.1, decompress_s=0.1)
        pick, _ = _profile([loose, tight]).best_for_link(1.0, max_bound=1e-2)
        assert pick is tight

    def test_bound_cap_below_grid_falls_back_to_tightest(self):
        loose = _measurement("sz2", 1e-1, ratio=20.0, compress_s=0.1, decompress_s=0.1)
        tight = _measurement("sz2", 1e-2, ratio=5.0, compress_s=0.1, decompress_s=0.1)
        pick, _ = _profile([loose, tight]).best_for_link(1.0, max_bound=1e-6)
        assert pick is tight

    def test_device_profile_scales_timings_into_infeasibility(self):
        m = _measurement("sz2", 1e-2, ratio=10.0, compress_s=0.05, decompress_s=0.05)
        profile = _profile([m])
        # feasible on the host at 50 Mbps...
        host_pick, _ = profile.best_for_link(50.0)
        assert host_pick is m
        # ...but a 100x-slower edge device pushes t_C + t_D past the raw transfer
        edge_pick, _ = profile.best_for_link(50.0, device=DeviceProfile("edge", 100.0))
        assert edge_pick is None

    def test_estimated_seconds_scales_sample_to_full_tensor(self):
        m = _measurement("szx", 1e-2, ratio=4.0, compress_s=0.1, decompress_s=0.1,
                         sample_bytes=250_000)
        profile = TensorProfile(name="w", shape=(250_000,), dtype="float32",
                                nbytes=1_000_000, sample_elements=62_500,
                                sample_bytes=250_000, measurements=(m,))
        compress, decompress = profile.estimated_roundtrip_seconds(m)
        assert compress == pytest.approx(0.4)
        assert decompress == pytest.approx(0.4)
        modeled = profile.estimated_seconds(m, bandwidth_mbps=8.0)
        assert modeled == pytest.approx(0.4 + 0.4 + 250_000 * 8 / 8e6)


# ---------------------------------------------------------------------------
# Cost models and validation
# ---------------------------------------------------------------------------

class TestCostModels:
    def test_resolve_cost_model(self):
        assert resolve_cost_model(None) is None
        assert resolve_cost_model("measured") is None
        assert isinstance(resolve_cost_model("analytic"), AnalyticCostModel)
        model = AnalyticCostModel()
        assert resolve_cost_model(model) is model
        with pytest.raises(ValueError, match="unknown cost model"):
            resolve_cost_model("psychic")

    def test_analytic_model_preserves_table1_ordering(self):
        model = AnalyticCostModel()
        times = {codec: sum(model.roundtrip_seconds(codec, 10_000_000, 1_000_000))
                 for codec in ("szx", "zfp", "sz2", "sz3")}
        assert times["szx"] < times["zfp"] < times["sz2"] < times["sz3"]

    def test_profiler_rejects_bad_configuration(self):
        with pytest.raises(ValueError, match="unknown candidate codecs"):
            CodecProfiler(candidates=("sz2", "nope"))
        with pytest.raises(ValueError, match="non-empty"):
            CodecProfiler(error_bounds=())
        with pytest.raises(ValueError, match="positive"):
            CodecProfiler(error_bounds=(0.0,))
        with pytest.raises(ValueError, match="sample_limit"):
            CodecProfiler(sample_limit=0)
        with pytest.raises(ValueError, match="workers"):
            CodecProfiler(workers=0)


# ---------------------------------------------------------------------------
# The verbatim fallback codec
# ---------------------------------------------------------------------------

class TestVerbatimCodec:
    def test_registered(self):
        assert "verbatim" in available_lossy()

    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    def test_roundtrip_is_bit_exact(self, rng, dtype):
        data = rng.normal(size=(37, 11)).astype(dtype)
        codec = get_lossy("verbatim", error_bound=1e-2)
        recon = codec.decompress(codec.compress(data))
        assert recon.dtype == data.dtype
        np.testing.assert_array_equal(recon, data)

    def test_payload_is_original_size_plus_small_header(self, rng):
        data = rng.normal(size=10_000).astype(np.float32)
        payload = get_lossy("verbatim").compress(data)
        assert data.nbytes < len(payload) <= data.nbytes + 32

    def test_zero_d_and_empty(self):
        codec = get_lossy("verbatim")
        scalar = np.array(7.25, dtype=np.float32)
        assert codec.decompress(codec.compress(scalar)).shape == ()
        empty = np.zeros(0, dtype=np.float64)
        assert codec.decompress(codec.compress(empty)).shape == (0,)

    def test_truncation_raises_valueerror_at_every_byte(self, rng):
        data = rng.normal(size=64).astype(np.float32)
        codec = get_lossy("verbatim")
        payload = codec.compress(data)
        for cut in range(len(payload)):
            with pytest.raises(ValueError):
                codec.decompress(payload[:cut])


# ---------------------------------------------------------------------------
# The profiled policy
# ---------------------------------------------------------------------------

class TestProfiledPolicy:
    def test_registered_in_policy_registry(self):
        policy = get_policy("profiled", bandwidth_mbps=5.0)
        assert isinstance(policy, ProfiledPolicy)

    def test_network_and_bandwidth_are_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            ProfiledPolicy(network=NetworkModel(10.0), bandwidth_mbps=5.0)
        with pytest.raises(ValueError, match="bandwidth_mbps must be positive"):
            ProfiledPolicy(bandwidth_mbps=0.0)
        with pytest.raises(ValueError, match="unknown fallback codec"):
            ProfiledPolicy(fallback_codec="nope")
        with pytest.raises(ValueError, match="belong to the profiler"):
            ProfiledPolicy(profiler=CodecProfiler(), candidates=("sz2",))

    def test_slow_link_compresses_fast_link_goes_verbatim(self, tensors):
        config = FedSZConfig()
        slow = ProfiledPolicy(bandwidth_mbps=1.0).build_plan(tensors, config)
        fast = ProfiledPolicy(bandwidth_mbps=1e6).build_plan(tensors, config)
        assert all(entry.codec != "verbatim" for entry in slow)
        assert all(entry.codec == "verbatim" for entry in fast)
        for plan in (slow, fast):
            for entry in plan:
                provenance = entry.options[PLAN_PROVENANCE_KEY]
                assert provenance["policy"] == "profiled"
                assert provenance["fallback"] == (entry.codec == "verbatim")
                if provenance["worthwhile"]:
                    assert provenance["modeled_seconds"] < provenance["uncompressed_seconds"]

    def test_bound_cap_tracks_config_error_bound(self, tensors):
        config = FedSZConfig(error_bound=1e-3)
        plan = ProfiledPolicy(bandwidth_mbps=1.0).build_plan(tensors, config)
        for entry in plan:
            assert entry.error_bound <= 1e-3 * (1 + 1e-12)

    def test_explicit_max_bound_wins_over_config(self, tensors):
        config = FedSZConfig(error_bound=1e-2)
        plan = ProfiledPolicy(bandwidth_mbps=1.0, max_bound=1e-4) \
            .build_plan(tensors, config)
        for entry in plan:
            assert entry.error_bound <= 1e-4 * (1 + 1e-12)

    def test_for_network_shares_profiler(self):
        policy = ProfiledPolicy(bandwidth_mbps=10.0)
        same = policy.for_network(NetworkModel(bandwidth_mbps=10.0))
        assert same is policy
        other = policy.for_network(NetworkModel(bandwidth_mbps=500.0))
        assert other is not policy
        assert other.profiler is policy.profiler
        assert other.bandwidth_mbps == 500.0

    def test_plans_deterministic_across_backends_and_workers(self, tensors):
        config = FedSZConfig()
        reference = ProfiledPolicy(bandwidth_mbps=25.0).build_plan(tensors, config)
        for backend in BACKENDS:
            for workers in (1, 3):
                profiler = CodecProfiler(cost_model="analytic", backend=backend,
                                         workers=workers)
                plan = ProfiledPolicy(bandwidth_mbps=25.0, profiler=profiler) \
                    .build_plan(tensors, config)
                assert plan == reference

    def test_policy_accepts_backend_and_workers(self, tensors):
        # the same single execution knob that steers every other fan-out stage
        policy = get_policy("profiled", bandwidth_mbps=25.0, backend="process",
                            workers=2)
        assert policy.backend.name == "process"
        reference = ProfiledPolicy(bandwidth_mbps=25.0).build_plan(tensors,
                                                                   FedSZConfig())
        assert policy.build_plan(tensors, FedSZConfig()) == reference
        variant = policy.for_network(NetworkModel(bandwidth_mbps=999.0))
        assert variant.backend is policy.backend and variant.workers == 2
        with pytest.raises(ValueError, match="workers"):
            ProfiledPolicy(workers=0)

    def test_policy_inherits_config_execution_knobs(self, tensors, monkeypatch):
        import repro.core.profiling as profiling_module

        seen = {}
        original = CodecProfiler.profile_tensors

        def spy(self, tensors, backend=None, workers=None, delta=False):
            seen["backend"], seen["workers"] = backend, workers
            return original(self, tensors, backend=backend, workers=workers,
                            delta=delta)

        monkeypatch.setattr(profiling_module.CodecProfiler, "profile_tensors", spy)
        config = FedSZConfig(backend="serial", pipeline_workers=3)
        ProfiledPolicy(bandwidth_mbps=25.0).build_plan(tensors, config)
        assert seen == {"backend": "serial", "workers": 3}

    def test_provenance_roundtrips_through_wire_form(self, tensors):
        plan = ProfiledPolicy(bandwidth_mbps=5.0).build_plan(tensors, FedSZConfig())
        unpacked, offset = unpack_plan(pack_plan(plan))
        assert offset == len(pack_plan(plan))
        assert unpacked == plan
        for entry in unpacked:
            provenance = entry.options[PLAN_PROVENANCE_KEY]
            assert provenance["policy"] == "profiled"
            assert provenance["cost_model"] == "analytic"
            # floats survive the canonical-JSON wire form bit-exactly
            original = plan[entry.name].options[PLAN_PROVENANCE_KEY]
            assert provenance == original
            json.dumps(provenance)  # stays JSON-serializable

    def test_overrides_still_apply(self, tensors):
        policy = ProfiledPolicy(bandwidth_mbps=1.0,
                                overrides={"layer1.weight": {"codec": "zfp"}})
        plan = policy.build_plan(tensors, FedSZConfig())
        assert plan["layer1.weight"].codec == "zfp"


class TestProfiledPipeline:
    @pytest.mark.parametrize("bandwidth", (2.0, 1e6))
    def test_roundtrip_with_provenance_in_manifest(self, small_state, bandwidth):
        config = FedSZConfig(policy="profiled",
                             policy_options={"bandwidth_mbps": bandwidth})
        fedsz = FedSZCompressor(config)
        payload, report = fedsz.compress_with_report(small_state)
        recon, decode_report = fedsz.decompress_with_report(payload)
        assert set(recon) == set(small_state)
        # the decoded manifest plan carries the provenance verbatim
        assert decode_report.plan == report.plan
        for entry in decode_report.plan:
            provenance = entry.options[PLAN_PROVENANCE_KEY]
            assert provenance["bandwidth_mbps"] == bandwidth
            if entry.codec == "verbatim":
                np.testing.assert_array_equal(recon[entry.name],
                                              small_state[entry.name])

    def test_verbatim_fallback_decodes_bit_exact_via_default_decoder(self, small_state):
        config = FedSZConfig(policy="profiled",
                             policy_options={"bandwidth_mbps": 1e6})
        payload = FedSZCompressor(config).compress_state_dict(small_state)
        # a fresh, default-configured compressor decodes the mixed stream
        recon = FedSZCompressor().decompress_state_dict(payload)
        for name, value in small_state.items():
            np.testing.assert_array_equal(recon[name], value)

    def test_bitstreams_identical_across_backends(self, small_state):
        payloads = set()
        for backend in BACKENDS:
            for workers in (1, 4):
                config = FedSZConfig(policy="profiled",
                                     policy_options={"bandwidth_mbps": 8.0},
                                     backend=backend, pipeline_workers=workers)
                payloads.add(FedSZCompressor(config).compress_state_dict(small_state))
        assert len(payloads) == 1


# ---------------------------------------------------------------------------
# selection.py as a thin wrapper (Eqn.-1 feasibility, DeviceProfile)
# ---------------------------------------------------------------------------

class TestSelectionWrapper:
    def test_deterministic_with_cost_model(self, weight_like):
        kwargs = dict(candidates=("sz2", "szx"), error_bounds=(1e-2, 1e-3),
                      cost_model=AnalyticCostModel())
        best1, grid1 = select_compressor(weight_like, **kwargs)
        best2, grid2 = select_compressor(weight_like, **kwargs)
        assert best1 == best2
        assert grid1 == grid2

    def test_feasibility_is_full_eqn1(self, weight_like):
        # analytic timings: feasibility flips exactly where t_C + t_D + S'/B
        # crosses S/B, which a compress-only check would misplace
        model = AnalyticCostModel()
        _, grid = select_compressor(weight_like, candidates=("sz2",),
                                    error_bounds=(1e-2,), cost_model=model,
                                    bandwidth_mbps=10.0)
        entry = grid[0]
        payload_bytes = weight_like.nbytes / entry.ratio
        lhs = entry.compress_seconds + entry.decompress_seconds \
            + payload_bytes * 8 / 10e6
        rhs = weight_like.nbytes * 8 / 10e6
        assert entry.feasible == (lhs < rhs)

    def test_device_profile_scales_into_infeasibility(self, weight_like):
        model = AnalyticCostModel()
        _, host_grid = select_compressor(weight_like, candidates=("sz2",),
                                         error_bounds=(1e-2,), cost_model=model,
                                         bandwidth_mbps=10.0)
        assert host_grid[0].feasible
        glacial = DeviceProfile("glacial-edge", compute_factor=1e4)
        _, edge_grid = select_compressor(weight_like, candidates=("sz2",),
                                         error_bounds=(1e-2,), cost_model=model,
                                         bandwidth_mbps=10.0, device=glacial)
        assert not edge_grid[0].feasible
        assert edge_grid[0].compress_seconds == pytest.approx(
            host_grid[0].compress_seconds * 1e4)

    def test_sample_limit_speeds_selection_with_same_api(self, rng):
        data = rng.normal(0, 0.05, 200_000).astype(np.float32)
        best, grid = select_compressor(data, candidates=("szx",),
                                       error_bounds=(1e-2,), sample_limit=4_096,
                                       cost_model=AnalyticCostModel())
        assert len(grid) == 1 and best.ratio > 1.0


# ---------------------------------------------------------------------------
# Heterogeneous fleet: per-client plans through the round engine
# ---------------------------------------------------------------------------

def _fleet_simulation(tiny_split, backend="serial", max_workers=1, n_clients=4,
                      spread=200.0):
    train, test = tiny_split

    def factory():
        return build_model("simplecnn", num_classes=10, in_channels=3,
                           image_size=16, seed=0)

    networks = make_client_networks(n_clients, base=NetworkModel(bandwidth_mbps=50.0),
                                    bandwidth_spread=spread, seed=13)
    config = FedSZConfig(policy="profiled",
                         policy_options={"bandwidth_mbps": 50.0,
                                         "sample_limit": 2_048})
    return FederatedSimulation(factory, train, test, n_clients=n_clients,
                               codec=FedSZUpdateCodec(config), networks=networks,
                               lr=0.15, seed=5, backend=backend,
                               max_workers=max_workers), networks


class TestHeterogeneousFleet:
    def test_per_client_plans_diverge_and_satisfy_eqn1(self, tiny_split):
        sim, networks = _fleet_simulation(tiny_split)
        record = sim.run_round(0)
        assert set(record.client_plans) == set(record.participants)

        distinct = {tuple((e.codec, e.error_bound) for e in plan)
                    for plan in record.client_plans.values()}
        assert len(distinct) >= 2, \
            "a 200x bandwidth spread must produce at least two distinct plans"

        for cid, plan in record.client_plans.items():
            for entry in plan:
                provenance = entry.options[PLAN_PROVENANCE_KEY]
                assert provenance["bandwidth_mbps"] == pytest.approx(
                    networks[cid].bandwidth_mbps)
                if provenance["fallback"]:
                    assert entry.codec == "verbatim"
                else:
                    # the acceptance criterion: modeled t_C + t_D + transfer
                    # beats the client's uncompressed transfer time
                    assert provenance["modeled_seconds"] <= \
                        provenance["uncompressed_seconds"]

    def test_roundtrip_bit_exact_per_client(self, tiny_split):
        sim, _ = _fleet_simulation(tiny_split)
        # every shipped update decoded and aggregated without error, and the
        # verbatim tiers decode bit-exactly (zero max error on those tensors)
        record = sim.run_round(0)
        assert record.accuracy >= 0.0
        for cid, report in record.client_reports.items():
            assert report.compressed_bytes > 0
            assert report.plan is record.client_plans[cid]

    def test_fast_clients_ship_more_bytes_than_slow(self, tiny_split):
        sim, networks = _fleet_simulation(tiny_split)
        record = sim.run_round(0)
        ratios = {cid: record.client_reports[cid].ratio
                  for cid in record.participants}
        fastest = max(record.participants, key=lambda c: networks[c].bandwidth_mbps)
        slowest = min(record.participants, key=lambda c: networks[c].bandwidth_mbps)
        assert networks[fastest].bandwidth_mbps / networks[slowest].bandwidth_mbps > 10
        assert ratios[slowest] > ratios[fastest], \
            "the slow link must compress harder than the fast one"

    @pytest.mark.parametrize("backend,workers", [("serial", 1), ("thread", 4),
                                                 ("process", 2)])
    def test_records_bit_identical_across_backends(self, tiny_split, backend, workers):
        reference_sim, _ = _fleet_simulation(tiny_split)
        reference = reference_sim.run_round(0)
        sim, _ = _fleet_simulation(tiny_split, backend=backend, max_workers=workers)
        record = sim.run_round(0)
        assert record.accuracy == reference.accuracy
        assert record.transmitted_bytes == reference.transmitted_bytes
        assert record.participants == reference.participants
        assert record.client_plans == reference.client_plans
        for key, value in reference_sim.server.global_state().items():
            np.testing.assert_array_equal(value, sim.server.global_state()[key])

    def test_link_agnostic_codec_shares_instances(self, tiny_split):
        train, test = tiny_split

        def factory():
            return build_model("simplecnn", num_classes=10, in_channels=3,
                               image_size=16, seed=0)

        networks = make_client_networks(3, base=NetworkModel(10.0),
                                        bandwidth_spread=8.0, seed=2)
        codec = FedSZUpdateCodec(FedSZConfig())  # uniform policy: no per-link variants
        sim = FederatedSimulation(factory, train, test, n_clients=3, codec=codec,
                                  networks=networks, seed=1)
        assert all(c is codec for c in sim.client_codecs)
