"""The unified ExecutionBackend layer: registry, worker resolution, map/submit
semantics, and the serial/thread/process equivalence matrix across the entropy
stage, the plan pipeline, and the round engine.

The single-core CI container only checks correctness: wall-clock speedup
assertions are gated on ``os.cpu_count() > 1``, matching the
``bench_pipeline.py --min-speedup`` convention.
"""

from __future__ import annotations

import importlib
import os
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors.huffman import HuffmanCoder
from repro.core import FedSZCompressor, FedSZConfig
from repro.fl import FederatedSimulation, FedSZUpdateCodec
from repro.nn import CrossEntropyLoss, SGD, available_models, build_model
from repro.utils import parallel
from repro.utils.parallel import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    available_backends,
    blas_threads,
    get_backend,
    map_parallel,
    register_backend,
    resolve_worker_count,
)

BACKENDS = ("serial", "thread", "process")


# -- module-level task functions: the process backend's picklability contract --

def _square(x: int) -> int:
    return x * x


def _boom(x: int) -> int:
    raise RuntimeError(f"worker failed on {x}")


def _nested_process_map(xs: "list[int]") -> "list[int]":
    # a process map issued from inside a process worker must degrade to
    # sequential execution instead of forking grandchildren
    return map_parallel(_square, xs, max_workers=2, backend="process")


def _spin(seconds: float) -> float:
    # CPU-bound busy loop (does not release the GIL meaningfully)
    deadline = time.perf_counter() + seconds
    x = 0.0
    while time.perf_counter() < deadline:
        x += 1.0
    return x


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert available_backends() == ("serial", "thread", "process",
                                        "subinterpreter")

    def test_get_backend_by_name_and_instance(self):
        thread = get_backend("thread")
        assert isinstance(thread, ThreadBackend)
        assert get_backend(thread) is thread
        assert isinstance(get_backend("serial"), SerialBackend)
        assert isinstance(get_backend("process"), ProcessBackend)

    def test_unknown_backend_raises_with_choices(self):
        with pytest.raises(ValueError, match="serial, thread, process"):
            get_backend("mpi")

    def test_register_backend_requires_a_name(self):
        class Nameless(ThreadBackend):
            name = "base"
        with pytest.raises(ValueError, match="name"):
            register_backend(Nameless())

    def test_traits(self):
        assert get_backend("thread").gil_bound
        assert get_backend("thread").shared_memory
        assert not get_backend("process").gil_bound
        assert not get_backend("process").shared_memory
        assert not get_backend("serial").gil_bound
        assert get_backend("serial").shared_memory

    def test_backends_are_picklable(self):
        import pickle
        for name in BACKENDS:
            assert isinstance(pickle.loads(pickle.dumps(get_backend(name))),
                              ExecutionBackend)


class TestWorkerResolution:
    """Satellite regression: ``None`` resolves per backend, not per the old
    thread-only ``min(32, cpu_count + 4)`` heuristic."""

    def test_thread_default_keeps_executor_heuristic(self):
        expected = min(32, (os.cpu_count() or 1) + 4)
        assert resolve_worker_count(None, 1000, backend="thread") == expected

    def test_process_default_is_cpu_count_not_thread_heuristic(self):
        assert resolve_worker_count(None, 1000, backend="process") == (os.cpu_count() or 1)

    def test_serial_always_resolves_to_one(self):
        assert resolve_worker_count(None, 1000, backend="serial") == 1
        assert resolve_worker_count(8, 1000, backend="serial") == 1

    def test_backend_defaults_to_thread_for_compatibility(self):
        assert resolve_worker_count(None, 1000) == \
            resolve_worker_count(None, 1000, backend="thread")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_clamped_to_items_and_floor_one(self, backend):
        assert resolve_worker_count(8, 3, backend=backend) in (1, 3)
        assert resolve_worker_count(8, 0, backend=backend) == 1
        assert resolve_worker_count(1, 10, backend=backend) == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_invalid_worker_count_rejected(self, backend):
        with pytest.raises(ValueError, match="workers"):
            resolve_worker_count(0, 4, backend=backend)


class TestMapSemantics:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_map_preserves_order(self, backend, workers):
        items = list(range(23))
        assert map_parallel(_square, items, max_workers=workers,
                            backend=backend) == [x * x for x in items]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_items(self, backend):
        assert map_parallel(_square, [], max_workers=4, backend=backend) == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_exceptions_propagate(self, backend):
        with pytest.raises(RuntimeError, match="worker failed"):
            map_parallel(_boom, [1, 2, 3], max_workers=2, backend=backend)

    def test_closures_work_on_shared_memory_backends(self):
        # only the process backend imposes the picklability contract
        acc = []
        for backend in ("serial", "thread"):
            assert map_parallel(lambda x: x + 1, [1, 2], backend=backend) == [2, 3]
            map_parallel(acc.append, [7], backend=backend)
        assert acc == [7, 7]

    def test_process_map_nested_in_process_worker_stays_flat(self):
        out = map_parallel(_nested_process_map, [[1, 2], [3, 4]],
                           max_workers=2, backend="process")
        assert out == [[1, 4], [9, 16]]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_executor_submit_semantics(self, backend):
        with get_backend(backend).executor(workers=2) as pool:
            futures = [pool.submit(_square, x) for x in (2, 3)]
            assert [f.result() for f in futures] == [4, 9]

    def test_serial_executor_wraps_exceptions(self):
        with get_backend("serial").executor() as pool:
            future = pool.submit(_boom, 1)
        with pytest.raises(RuntimeError, match="worker failed"):
            future.result()

    @pytest.mark.skipif((os.cpu_count() or 1) < 2,
                        reason="speedup needs more than one core")
    def test_process_backend_beats_serial_on_cpu_bound_work(self):
        items = [0.2] * 4
        start = time.perf_counter()
        map_parallel(_spin, items, max_workers=1, backend="serial")
        serial_wall = time.perf_counter() - start
        start = time.perf_counter()
        map_parallel(_spin, items, max_workers=4, backend="process")
        process_wall = time.perf_counter() - start
        assert process_wall < serial_wall


# -- equivalence matrix: every fan-out stage, every backend, bit-identical ----

class TestHuffmanEquivalence:
    def test_backend_matrix_decodes_bit_identical(self):
        rng = np.random.default_rng(42)
        symbols = rng.integers(0, 500, size=120_000)
        coder = HuffmanCoder(chunk_size=2048)
        payload = coder.encode(symbols)
        reference = coder.decode(payload, max_workers=1)
        np.testing.assert_array_equal(reference, symbols)
        for backend in BACKENDS:
            for workers in (1, 2, 4):
                decoded = coder.decode(payload, max_workers=workers, backend=backend)
                np.testing.assert_array_equal(decoded, reference)

    def test_instance_backend_default_used(self):
        rng = np.random.default_rng(3)
        symbols = rng.integers(0, 64, size=40_000)
        for backend in BACKENDS:
            coder = HuffmanCoder(chunk_size=1024, max_workers=4, backend=backend)
            np.testing.assert_array_equal(coder.decode(coder.encode(symbols)), symbols)

    def test_corruption_raises_valueerror_across_process_boundary(self):
        import struct
        import zlib

        rng = np.random.default_rng(9)
        symbols = rng.integers(0, 100, size=60_000)
        coder = HuffmanCoder(chunk_size=1024)
        payload = bytearray(coder.encode(symbols))
        # nudge one mid-stream chunk's recorded bit offset by a single bit and
        # *re-stamp the CRC*: every parent-side header check still passes (the
        # shifted spans stay plausible), so the corruption is only discovered
        # by a band task failing its decode-boundary check — the worker-side
        # ValueError must marshal back intact (for the process backend:
        # across the process boundary)
        index_at = 8 + 20 + int(symbols.max()) + 1  # prefix + header + lengths
        (offset,) = struct.unpack_from("<Q", payload, index_at + 30 * 16)
        struct.pack_into("<Q", payload, index_at + 30 * 16, offset + 1)
        payload[4:8] = struct.pack("<I", zlib.crc32(bytes(payload[8:])))
        for backend in BACKENDS:
            with pytest.raises(ValueError, match="Huffman"):
                coder.decode(bytes(payload), max_workers=2, backend=backend)


class TestPipelineEquivalence:
    @pytest.fixture(scope="class")
    def state(self):
        return build_model("simplecnn", num_classes=10, in_channels=3,
                           image_size=16, seed=1).state_dict()

    def test_bitstreams_bit_identical_across_backends(self, state):
        reference = FedSZCompressor(FedSZConfig()).compress_state_dict(state)
        for backend in BACKENDS:
            for workers in (1, 2, 3):
                config = FedSZConfig(backend=backend, pipeline_workers=workers,
                                     entropy_workers=workers)
                fedsz = FedSZCompressor(config)
                payload = fedsz.compress_state_dict(state)
                assert payload == reference, (backend, workers)
                recon = fedsz.decompress_state_dict(payload)
                ref_recon = FedSZCompressor(FedSZConfig()).decompress_state_dict(reference)
                for key in ref_recon:
                    np.testing.assert_array_equal(recon[key], ref_recon[key])

    def test_mixed_codec_plan_bit_identical_across_backends(self, state):
        def compress(backend):
            config = FedSZConfig(policy="mixed-codec",
                                 policy_options={"small_codec": "szx",
                                                 "size_cutoff": 4096},
                                 backend=backend, pipeline_workers=2)
            return FedSZCompressor(config).compress_state_dict(state)

        serial = compress("serial")
        assert compress("thread") == serial
        assert compress("process") == serial

    @settings(max_examples=6, deadline=None)
    @given(workers=st.integers(min_value=1, max_value=5),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_property_any_worker_count_any_backend(self, workers, seed):
        rng = np.random.default_rng(seed)
        state = {
            "a.weight": rng.normal(0, 0.05, size=3000).astype(np.float32),
            "b.weight": rng.normal(0, 0.1, size=(40, 50)).astype(np.float32),
            "c.bias": rng.normal(0, 0.01, size=64).astype(np.float32),
        }
        payloads = {
            backend: FedSZCompressor(
                FedSZConfig(backend=backend, pipeline_workers=workers,
                            entropy_workers=workers)).compress_state_dict(state)
            for backend in BACKENDS
        }
        assert payloads["serial"] == payloads["thread"] == payloads["process"]


class TestRoundEngineEquivalence:
    def _run(self, tiny_split, backend, workers):
        train, test = tiny_split

        def factory():
            return build_model("simplecnn", num_classes=10, in_channels=3,
                               image_size=16, seed=0)

        codec = FedSZUpdateCodec(FedSZConfig(error_bound=1e-2, backend=backend))
        sim = FederatedSimulation(factory, train, test, n_clients=3, codec=codec,
                                  seed=5, lr=0.1, max_workers=workers,
                                  backend=backend)
        return sim.run(2)

    def test_round_records_identical_across_backends(self, tiny_split):
        """Satellite requirement: a seeded 2-round simulation produces
        identical RoundRecords on serial, thread, and process backends."""
        results = {backend: self._run(tiny_split, backend, workers=2)
                   for backend in BACKENDS}
        reference = results["serial"]
        for backend, result in results.items():
            assert result.accuracies == reference.accuracies, backend
            for ours, ref in zip(result.rounds, reference.rounds):
                assert ours.transmitted_bytes == ref.transmitted_bytes
                assert ours.uncompressed_bytes == ref.uncompressed_bytes
                assert ours.communication_seconds == ref.communication_seconds
                assert ours.client_losses == ref.client_losses
                assert ours.participants == ref.participants
                assert set(ours.client_reports) == set(ref.client_reports)
                for cid, report in ours.client_reports.items():
                    assert report.compressed_bytes == \
                        ref.client_reports[cid].compressed_bytes
                    assert report.original_bytes == \
                        ref.client_reports[cid].original_bytes

    def test_client_replicas_consistent_after_process_round(self, tiny_split):
        train, test = tiny_split

        def factory():
            return build_model("simplecnn", num_classes=10, in_channels=3,
                               image_size=16, seed=0)

        sims = {}
        for backend in ("serial", "process"):
            sims[backend] = FederatedSimulation(factory, train, test, n_clients=2,
                                                seed=5, lr=0.1, max_workers=2,
                                                backend=backend)
            sims[backend].run_round(0)
        # process-trained replicas are re-absorbed from the returned updates,
        # so every backend leaves the client models in the same state
        for a, b in zip(sims["serial"].clients, sims["process"].clients):
            for key, value in a.model.state_dict().items():
                np.testing.assert_array_equal(value, b.model.state_dict()[key])

    def test_unknown_backend_rejected(self, tiny_split):
        train, test = tiny_split

        def factory():
            return build_model("simplecnn", num_classes=10, in_channels=3,
                               image_size=16, seed=0)

        with pytest.raises(ValueError, match="unknown execution backend"):
            FederatedSimulation(factory, train, test, n_clients=2, backend="mpi")


class TestRemovedShim:
    """Satellite: the deprecated ``repro.fl.parallel`` shim is gone; the real
    homes (``repro.utils.parallel`` / ``repro.fl.simulation``) remain the
    package re-exports."""

    def test_shim_module_is_removed(self):
        sys.modules.pop("repro.fl.parallel", None)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.fl.parallel")

    def test_package_reexports_survive_the_removal(self):
        import repro.fl
        from repro.fl.simulation import train_clients_parallel

        assert repro.fl.map_parallel is map_parallel
        assert repro.fl.resolve_worker_count is resolve_worker_count
        assert repro.fl.train_clients_parallel is train_clients_parallel


def _arena_sum(handle) -> float:
    """Module-level arena reader for the cross-process shipping tests."""
    with handle.open() as view:
        arrays = view.arrays()
        total = float(sum(a.sum() for a in arrays.values()))
        del arrays  # the views must die before the attachment closes
    return total


class TestSubinterpreterBackend:
    """Satellite: the PEP 734 backend registers everywhere but only runs on
    interpreters that ship ``InterpreterPoolExecutor`` (Python 3.13+)."""

    def test_registered_with_traits(self):
        from repro.utils.parallel import SubinterpreterBackend

        assert "subinterpreter" in available_backends()
        backend = get_backend("subinterpreter")
        assert isinstance(backend, SubinterpreterBackend)
        assert backend.pickles_arguments
        assert not backend.shared_memory
        assert not backend.gil_bound

    def test_pickles_arguments_trait_matrix(self):
        assert get_backend("process").pickles_arguments
        assert not get_backend("serial").pickles_arguments
        assert not get_backend("thread").pickles_arguments

    def test_unsupported_interpreter_raises_cleanly(self):
        backend = get_backend("subinterpreter")
        if backend.supported():
            pytest.skip("this interpreter supports subinterpreter pools")
        # even the workers=1 sequential degrade must raise: a backend that
        # works single-worker but fails at 4 would be a debugging trap
        with pytest.raises(ValueError, match="3.13"):
            backend.map(_square, [1, 2, 3], workers=1)
        with pytest.raises(ValueError, match="3.13"):
            backend.executor(2)
        with pytest.raises(ValueError, match="subinterpreter"):
            map_parallel(_square, [1, 2], backend="subinterpreter")

    def test_supported_interpreter_matches_serial(self):
        backend = get_backend("subinterpreter")
        if not backend.supported():
            pytest.skip("requires Python >= 3.13 (InterpreterPoolExecutor)")
        items = list(range(20))
        assert backend.map(_square, items, workers=4) == [x * x for x in items]


class TestSharedMemoryArena:
    """Satellite: tensor shipping for pickling backends via one shared
    segment and a tiny picklable handle."""

    def _arrays(self):
        rng = np.random.default_rng(9)
        return {
            "w": rng.normal(0, 1, (16, 8)).astype(np.float32),
            "b": rng.normal(0, 1, 16).astype(np.float64),
            "i": np.arange(10, dtype=np.int64),
            "empty": np.zeros(0, dtype=np.float32),
        }

    def test_roundtrip_values_dtypes_shapes(self):
        from repro.utils.parallel import SharedMemoryArena

        arrays = self._arrays()
        with SharedMemoryArena(arrays) as arena:
            got = arena.handle.load()
            assert list(got) == list(arrays)
            for key in arrays:
                np.testing.assert_array_equal(got[key], arrays[key])
                assert got[key].dtype == arrays[key].dtype
                assert got[key].shape == arrays[key].shape

    def test_noncontiguous_input_packed_contiguously(self):
        from repro.utils.parallel import SharedMemoryArena

        strided = np.arange(20, dtype=np.float64)[::2]
        with SharedMemoryArena({"s": strided}) as arena:
            np.testing.assert_array_equal(arena.handle.load()["s"], strided)

    def test_handle_is_small_and_picklable(self):
        import pickle

        from repro.utils.parallel import SharedMemoryArena

        big = {"big": np.zeros((512, 512), dtype=np.float64)}
        with SharedMemoryArena(big) as arena:
            blob = pickle.dumps(arena.handle)
            assert len(blob) < 1024  # metadata only, never the buffers
            np.testing.assert_array_equal(
                pickle.loads(blob).load()["big"], big["big"])

    def test_views_are_readonly_copies_are_not(self):
        from repro.utils.parallel import SharedMemoryArena

        with SharedMemoryArena({"x": np.ones(4)}) as arena:
            with arena.handle.open() as view:
                zero_copy = view.arrays()["x"]
                assert not zero_copy.flags.writeable
                copied = view.arrays(copy=True)["x"]
                assert copied.flags.writeable
                del zero_copy
            copied[0] = 7.0  # the copy survives the view

    def test_close_is_idempotent(self):
        from repro.utils.parallel import SharedMemoryArena

        arena = SharedMemoryArena({"x": np.ones(4)})
        arena.close()
        arena.close()

    def test_empty_mapping(self):
        from repro.utils.parallel import SharedMemoryArena

        with SharedMemoryArena({}) as arena:
            assert arena.handle.load() == {}

    def test_cross_process_shipping(self):
        from repro.utils.parallel import SharedMemoryArena

        arrays = self._arrays()
        expected = float(sum(a.sum() for a in arrays.values()))
        with SharedMemoryArena(arrays) as arena:
            results = map_parallel(_arena_sum, [arena.handle] * 3,
                                   backend="process", max_workers=2)
        assert results == [expected] * 3


# -- BLAS thread budget -------------------------------------------------------

def _report_blas_threads(_: int) -> "int | None":
    """Module-level task: the BLAS thread count seen where the task runs."""
    return blas_threads()


def _report_os_threads(_: int) -> int:
    """Module-level task: the OS threads of the process the task runs in."""
    return len(os.listdir("/proc/self/task"))


class _FakeBlas:
    """A stand-in thread count with the shape of the OpenBLAS probe."""

    def __init__(self, count: int) -> None:
        self.count = count
        self.sets: list[int] = []

    def set(self, count: int) -> None:
        self.sets.append(count)
        self.count = count

    def api(self):
        return self.set, lambda: self.count, lambda: None


def _expected_cap(before: int, workers: int) -> int:
    return min(before, max(1, (os.cpu_count() or 1) // workers))


requires_blas = pytest.mark.skipif(blas_threads() is None,
                                   reason="no OpenBLAS thread setter found")


class TestBlasBudget:
    """Pools with more than one worker cap BLAS at ``cpu_count // workers``
    threads while they live, never raise the count, and restore it after."""

    @pytest.fixture
    def fake(self, monkeypatch):
        """8 cores and a BLAS library running 8 threads."""
        blas = _FakeBlas(8)
        monkeypatch.setattr(parallel, "_blas_api", blas.api)
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 8)
        return blas

    @requires_blas
    def test_thread_scope_caps_and_restores(self):
        before = blas_threads()
        with get_backend("thread").persistent(workers=2) as scope:
            assert blas_threads() == _expected_cap(before, 2)
            seen = scope.map(_report_blas_threads, range(4))
            assert seen == [_expected_cap(before, 2)] * 4
        assert blas_threads() == before

    @requires_blas
    def test_thread_scope_restores_on_exception(self):
        before = blas_threads()
        with pytest.raises(RuntimeError, match="inside"):
            with get_backend("thread").persistent(workers=2):
                assert blas_threads() == _expected_cap(before, 2)
                raise RuntimeError("inside the scope")
        assert blas_threads() == before

    @requires_blas
    def test_one_shot_pools_cap_and_restore(self):
        before = blas_threads()
        backend = ThreadBackend()
        with backend.executor(workers=2) as pool:
            assert pool.submit(_report_blas_threads, 0).result() == \
                _expected_cap(before, 2)
        assert blas_threads() == before
        assert backend.map(_report_blas_threads, range(4), workers=2) == \
            [_expected_cap(before, 2)] * 4
        assert blas_threads() == before

    @requires_blas
    def test_process_workers_report_the_budget(self):
        before = blas_threads()
        seen = get_backend("process").map(_report_blas_threads, range(4), workers=2)
        assert seen == [_expected_cap(before, 2)] * 4
        assert blas_threads() == before
        with get_backend("process").persistent(workers=2) as scope:
            # the cap lives in the workers; the parent keeps its count
            assert blas_threads() == before
            assert scope.map(_report_blas_threads, range(4)) == \
                [_expected_cap(before, 2)] * 4

    @requires_blas
    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
    def test_process_workers_start_no_blas_threads(self):
        # capping the count in a fresh worker must not leave OpenBLAS's
        # worker threads running (they would busy-wait next to the task)
        assert get_backend("process").map(_report_os_threads, range(4), workers=2) \
            == [1] * 4

    def test_single_worker_and_serial_leave_blas_alone(self, fake):
        with get_backend("thread").persistent(workers=1):
            assert fake.count == 8
        get_backend("serial").map(_square, range(4))
        get_backend("thread").map(_square, range(4), workers=1)
        assert fake.sets == []

    def test_nested_scopes_keep_the_minimum(self, fake):
        with get_backend("thread").persistent(workers=2):
            assert fake.count == 4
            with ThreadBackend().persistent(workers=8):
                assert fake.count == 1
                with ThreadBackend().persistent(workers=2):
                    assert fake.count == 1  # a looser budget never raises it
                assert fake.count == 1
            assert fake.count == 4
        assert fake.count == 8

    def test_never_raises_a_lower_count(self, fake):
        fake.count = 2
        with get_backend("thread").persistent(workers=2):
            assert fake.count == 2
            with ThreadBackend().persistent(workers=8):
                assert fake.count == 1
            assert fake.count == 2
        assert fake.count == 2

    def test_concurrent_scopes_from_two_threads(self, fake):
        import threading

        both_in = threading.Barrier(2)
        narrow_out = threading.Event()
        seen: dict[str, int] = {}

        def wide() -> None:
            with ThreadBackend().persistent(workers=2):
                both_in.wait()
                seen["both"] = fake.count
                both_in.wait()
                narrow_out.wait()
                seen["wide-alone"] = fake.count

        def narrow() -> None:
            with ThreadBackend().persistent(workers=8):
                both_in.wait()
                both_in.wait()  # wide has read the count while both are open
            narrow_out.set()

        threads = [threading.Thread(target=wide), threading.Thread(target=narrow)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert seen["both"] == 1  # the minimum over both budgets
        assert seen["wide-alone"] == 4  # the narrow scope left first
        assert fake.count == 8  # the last one out restored the original

    def test_exception_releases_only_its_own_budget(self, fake):
        with get_backend("thread").persistent(workers=2):
            with pytest.raises(ValueError):
                with ThreadBackend().persistent(workers=8):
                    assert fake.count == 1
                    raise ValueError("inner")
            assert fake.count == 4
        assert fake.count == 8

    def test_no_setter_makes_the_scope_a_noop(self, monkeypatch):
        real = parallel._blas_api()
        before = real[1]() if real is not None else None
        monkeypatch.setattr(parallel, "_blas_api", lambda: None)
        assert blas_threads() is None
        with get_backend("thread").persistent(workers=2) as scope:
            assert parallel._BLAS_BUDGETS.active == []
            assert scope.map(_square, range(4)) == [0, 1, 4, 9]
            if real is not None:
                assert real[1]() == before
        assert parallel._BLAS_BUDGETS.active == []


def _train_digest(name: str) -> str:
    """sha256 of ``name``'s state after 3 seeded SGD steps."""
    import hashlib

    rng = np.random.default_rng(11)
    model = build_model(name, seed=0)
    model.train()
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
    loss = CrossEntropyLoss()
    for _ in range(3):
        x = rng.standard_normal((16, 3, 32, 32)).astype(np.float32)
        loss(model.forward(x), rng.integers(0, 10, 16))
        model.zero_grad()
        model.backward(loss.backward())
        optimizer.step()
    digest = hashlib.sha256()
    for key, value in model.state_dict().items():
        digest.update(key.encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()


@requires_blas
def test_training_is_invariant_to_the_blas_thread_count():
    """The backend bit-identity suites compare runs whose BLAS thread counts
    differ (a pool caps them, the serial reference does not): training must
    not depend on the count."""
    setter, getter, _ = parallel._blas_api()
    default = getter()
    try:
        at_default = {name: _train_digest(name) for name in available_models()}
        setter(1)
        at_one = {name: _train_digest(name) for name in available_models()}
    finally:
        setter(default)
    assert at_one == at_default
