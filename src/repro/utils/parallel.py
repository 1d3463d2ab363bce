"""Pluggable execution backends shared across the code base.

Every fan-out in the repository — the federated round engine (training /
shipping several clients per round), the per-tensor plan pipeline, and the
chunked Huffman entropy stage — goes through one :class:`ExecutionBackend`
abstraction with three built-in implementations:

* ``serial`` — strictly sequential execution on the calling thread, always
  bit-identical to a plain ``for`` loop (the deterministic reference the test
  suite pins the parallel paths against, and exactly what ``max_workers=1``
  selects on the other backends).
* ``thread`` — a :class:`~concurrent.futures.ThreadPoolExecutor`.  Best when
  the work releases the GIL (NumPy BLAS kernels, simulated network sleeps);
  the historic default everywhere.
* ``process`` — a :class:`~concurrent.futures.ProcessPoolExecutor`.  Scales
  pure-Python/CPU work past the GIL (the paper's many-core server decoding
  hundreds of client updates per round), at the price of a picklability
  contract: the mapped function must be a module-level callable and both its
  arguments and results must pickle.  Closures and lambdas are rejected by
  pickle itself.
* ``subinterpreter`` — a :class:`~concurrent.futures.InterpreterPoolExecutor`
  (PEP 734, Python 3.13+): one interpreter (and one GIL) per worker inside a
  single process.  Registered on every interpreter so it is discoverable, but
  running work on it raises a clean :class:`ValueError` when the executor
  class is missing.  Same picklability contract as ``process``.

Backends that pickle their arguments (``pickles_arguments`` trait) can ship
large NumPy buffers through a :class:`SharedMemoryArena` instead: the caller
packs arrays into one ``multiprocessing.shared_memory`` segment and hands
tasks a small picklable :class:`ArenaHandle` naming where each array lives.

Worker-count semantics are uniform across backends:

* ``workers=1`` — strictly sequential execution on the calling thread, no
  pool is created (bit-identical to the ``serial`` backend).
* ``workers=N`` — up to ``N`` items in flight at once.
* ``workers=None`` — the backend default: ``min(32, cpu_count + 4)`` for
  threads (the executor's own heuristic, tuned for I/O-ish overlap) but
  ``cpu_count`` for processes — a process pool is pure CPU fan-out, so the
  thread heuristic would oversubscribe it.

Process pools never nest: a ``process`` map issued from inside a process-pool
worker (e.g. a pipeline worker whose entropy stage also asks for processes)
degrades to sequential execution in that worker instead of forking
grandchildren.

Pools are per-call by default — every :meth:`~ExecutionBackend.map` spins one
up and tears it down.  Call sites that fan out repeatedly (a federated run
maps training and shipping every round) wrap the whole run in
:meth:`ExecutionBackend.persistent`, a scope backed by one long-lived pool:

* inside the scope, ``map``/``executor`` calls **from the thread that entered
  it** reuse the scope's pool (``executor`` returns a non-owning view whose
  ``shutdown`` is a no-op, so ``with`` blocks cannot kill the shared pool);
* calls from *other* threads — e.g. a nested fan-out issued inside a pool
  worker — keep the historic fresh-pool/sequential behaviour, which is what
  makes the scope deadlock-free by construction;
* ``serial`` (or a resolved worker count of 1) degrades to a no-op scope;
* an optional ``initializer(*initargs)`` runs once per worker as it spawns
  (and re-runs if a crashed process worker is respawned) — the hook the
  federated coordinator uses to install worker-resident client state once per
  run instead of shipping it with every task.

Every real pool construction (persistent or per-call) increments the
backend's ``pool_spinups`` counter, so benchmarks can show how many pools a
workload paid for.

Every pool with more than one worker also holds a BLAS thread budget for as
long as it lives.  OpenBLAS starts its own threads in every caller, so two pool
workers each running a GEMM on a 2-core host would otherwise ask for four
threads and get no more done than one worker.  While such a pool is alive the
BLAS library's thread count is capped at ``min(current, max(1, cpu_count //
workers))``:

* thread and subinterpreter pools share the process, so the cap is set in the
  parent when the pool is built and restored when it shuts down (on error
  too).  The count is process-global: overlapping pools — nested scopes, or
  scopes opened from different threads — keep it at the minimum over their
  budgets, and the last one to shut down restores the count found before the
  first;
* process pools set it inside each worker as it spawns;
* the budget never raises the count, so a lower ``OPENBLAS_NUM_THREADS`` (or a
  lower count set by the caller) still wins.  When no OpenBLAS thread setter
  is found in the process (see :func:`blas_threads`) the budget does nothing.


This module is dependency-free on purpose: it sits below ``repro.fl``,
``repro.core``, and ``repro.compressors`` in the layering, so every side can
import it without cycles.
"""

from __future__ import annotations

import abc
import contextlib
import ctypes
import functools
import glob
import os
import sys
import threading
from concurrent import futures
from concurrent.futures import Executor, Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

import numpy as np

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "SubinterpreterBackend",
    "PersistentPool",
    "SharedMemoryArena",
    "ArenaHandle",
    "ArenaView",
    "available_backends",
    "blas_threads",
    "get_backend",
    "register_backend",
    "map_parallel",
    "resolve_worker_count",
]

T = TypeVar("T")
R = TypeVar("R")

#: Environment marker set in every process-pool worker so nested ``process``
#: maps degrade to sequential execution instead of forking grandchildren.
_PROCESS_WORKER_ENV = "REPRO_EXECUTION_PROCESS_WORKER"


# ----------------------------------------------------------------------
# BLAS thread budget
# ----------------------------------------------------------------------

#: (setter, getter) symbol pairs, probed in order: the 64-bit-integer OpenBLAS
#: that NumPy wheels bundle, then a plain system OpenBLAS.
_BLAS_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _openblas_paths() -> list[str]:
    """Shared objects that look like OpenBLAS: the mapped ones, then NumPy's."""
    paths: list[str] = []
    try:
        with open("/proc/self/maps") as maps:
            for line in maps:
                path = line.rsplit(None, 1)[-1]
                if "openblas" in os.path.basename(path).lower() and path not in paths:
                    paths.append(path)
    except OSError:  # not Linux
        pass
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    paths += [p for p in sorted(glob.glob(os.path.join(libs, "*openblas*")))
              if p not in paths]
    return paths


@functools.cache
def _blas_api() -> "tuple[Callable[[int], None], Callable[[], int], Callable[[], None]] | None":
    """``(set_num_threads, get_num_threads, stop_server)`` of the loaded
    OpenBLAS, or None.  ``stop_server`` parks OpenBLAS's worker threads (the
    library restarts them on the next call that needs them); it is a no-op
    when the library does not export ``blas_thread_shutdown_``."""
    for path in _openblas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _BLAS_SYMBOLS:
            setter = getattr(lib, set_name, None)
            getter = getattr(lib, get_name, None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                stop = getattr(lib, "blas_thread_shutdown_", None)
                return setter, getter, (stop if stop is not None else lambda: None)
    return None


def blas_threads() -> int | None:
    """The BLAS library's current thread count (None: no setter was found)."""
    api = _blas_api()
    return None if api is None else api[1]()


def _blas_budget(workers: int) -> int:
    """BLAS threads per worker that keep ``workers`` pool workers on the cores."""
    return max(1, (os.cpu_count() or 1) // workers)


class _BlasBudgets:
    """The budgets of the in-process pools alive right now (process-wide)."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        #: one entry per live pool (a multiset)
        self.active: list[int] = []
        #: the BLAS thread count found when the first of them started
        self.before = 0

    def _apply(self, api) -> None:
        setter, getter = api[0], api[1]
        target = min([self.before, *self.active])
        if getter() != target:
            setter(target)

    def acquire(self, workers: int) -> "Callable[[], None]":
        """Cap BLAS threads for a pool of ``workers``; return the release.

        The release is idempotent; once the last active budget is released
        the count found before the first one is restored.
        """
        api = _blas_api()
        if api is None:
            return lambda: None
        budget = _blas_budget(workers)
        with self.lock:
            if not self.active:
                self.before = api[1]()
            self.active.append(budget)
            self._apply(api)
        released = False

        def release() -> None:
            nonlocal released
            with self.lock:
                if released:
                    return
                released = True
                self.active.remove(budget)
                self._apply(api)

        return release


_BLAS_BUDGETS = _BlasBudgets()


def _mark_process_worker() -> None:
    """Pool initializer: tag the worker so nested process maps stay flat."""
    os.environ[_PROCESS_WORKER_ENV] = "1"


def _process_worker_init(initializer=None, initargs=(), workers: int = 1) -> None:
    """Process-pool initializer: mark the worker, cap BLAS, run the caller's hook.

    Module-level so it pickles; ``initializer`` and ``initargs`` ride along as
    ``initargs`` of the real :class:`ProcessPoolExecutor`, which is exactly
    where a persistent scope ships its once-per-worker state.  The worker
    lives as long as its pool, so the BLAS cap is never undone here.
    """
    _mark_process_worker()
    api = _blas_api()
    if api is not None and workers > 1:
        setter, getter, stop_server = api
        if getter() > _blas_budget(workers):
            setter(_blas_budget(workers))
            # in a freshly forked worker the setter starts OpenBLAS's worker
            # threads, which busy-wait for ~0.1 s of CPU; park them until a
            # call needs them (a single-threaded call never does)
            stop_server()
    if initializer is not None:
        initializer(*initargs)


def _in_process_worker() -> bool:
    return os.environ.get(_PROCESS_WORKER_ENV) == "1"


class _SerialExecutor(Executor):
    """`submit` semantics for the serial backend: run inline, wrap the result."""

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # noqa: BLE001 - mirrored into the future
            future.set_exception(exc)
        return future


class PersistentPool:
    """A live :meth:`ExecutionBackend.persistent` scope: one long-lived pool.

    ``map`` mirrors :meth:`ExecutionBackend.map`'s ordered semantics on the
    shared executor; a task exception propagates to the caller and leaves the
    pool usable for subsequent maps (both thread and process pools survive
    task failures — only an unpicklable task or a worker hard-crash breaks a
    process pool).  ``maps`` counts dispatches through the scope, the
    observable evidence that call sites reused the pool instead of spinning
    fresh ones.
    """

    def __init__(self, executor: Executor, workers: int) -> None:
        self.executor = executor
        self.workers = workers
        #: number of map() calls served by this scope's pool
        self.maps = 0

    def map(self, func: Callable[[T], R], items: "list[T]",
            chunksize: int | None = None) -> "list[R]":
        if chunksize is None:
            # same batching as the per-call process path: about four task
            # dispatches deep per worker (thread pools ignore chunksize)
            chunksize = max(1, len(items) // (self.workers * 4))
        self.maps += 1
        return list(self.executor.map(func, items, chunksize=chunksize))


class _ScopedExecutor(Executor):
    """Non-owning view of a persistent pool.

    Returned by :meth:`ExecutionBackend.executor` inside a persistent scope so
    the ubiquitous ``with backend.executor(...) as pool:`` idiom keeps working:
    ``shutdown`` (and therefore ``__exit__``) is a no-op — the scope, not the
    call site, owns the pool's lifetime.
    """

    def __init__(self, executor: Executor) -> None:
        self._executor = executor

    def submit(self, fn, /, *args, **kwargs) -> Future:
        return self._executor.submit(fn, *args, **kwargs)

    def map(self, fn, *iterables, **kwargs):
        return self._executor.map(fn, *iterables, **kwargs)

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        pass


class _BudgetedExecutor(_ScopedExecutor):
    """An owning view of an in-process pool that holds a BLAS thread budget.

    ``shutdown`` shuts the pool down, then releases the budget.
    """

    def __init__(self, executor: Executor, release: "Callable[[], None]") -> None:
        super().__init__(executor)
        self._release = release

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        try:
            self._executor.shutdown(wait=wait, cancel_futures=cancel_futures)
        finally:
            self._release()


class ExecutionBackend(abc.ABC):
    """One way of running independent work items: serial, threads, or processes.

    Backends are (almost) stateless and picklable; pools live only for the
    duration of a single :meth:`map` or :meth:`executor` call — unless the
    caller opens a :meth:`persistent` scope, whose one long-lived pool backs
    every ``map``/``executor`` call issued *from the entering thread* for the
    scope's lifetime.  The scope bookkeeping is thread-local and dropped on
    pickling, so instances remain safe to share between threads and to embed
    in compressor objects that cross a process boundary themselves.
    """

    #: registry key; also what ``repr`` and the CLI show
    name: str = "base"

    #: real (non-serial) executor pools this instance has constructed — the
    #: per-round fixed cost the persistent scope exists to amortize away
    pool_spinups: int = 0

    #: True when workers contend for one GIL (threads): pure-CPU call sites
    #: clamp their fan-out to the physical cores on such backends, because
    #: extra workers are strict oversubscription.  GIL-free backends honour
    #: the requested count — their workers really do run concurrently.
    gil_bound: bool = False

    #: True when workers see (and may mutate) the caller's objects.  On a
    #: non-shared-memory backend (processes) arguments are copied to the
    #: worker, so in-place mutations are confined to the task and only the
    #: *returned* values travel back — callers that rely on side effects must
    #: re-absorb them from the results.
    shared_memory: bool = True

    #: True when workers run in the caller's process (threads,
    #: subinterpreters), so the BLAS thread budget is set in the parent for
    #: the pool's lifetime; process workers set it themselves as they spawn.
    budget_in_parent: bool = False

    #: True when arguments and results cross a serialization (pickle)
    #: boundary on their way to and from workers.  Call sites that would ship
    #: large buffers check this trait and switch to a
    #: :class:`SharedMemoryArena` handle; on in-process backends the arena is
    #: pure overhead, so it stays off there.
    pickles_arguments: bool = False

    @abc.abstractmethod
    def default_workers(self) -> int:
        """Worker count used when the caller passes ``workers=None``."""

    def resolve_workers(self, workers: int | None, n_items: int) -> int:
        """Effective worker count for ``n_items`` units of work.

        ``None`` resolves to :meth:`default_workers`; the result is always
        clamped to ``n_items`` (never spawn idle workers) and to a floor of 1.
        """
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        if workers is None:
            workers = self.default_workers()
        return max(1, min(workers, n_items))

    @abc.abstractmethod
    def _make_executor(self, workers: int, initializer: Callable | None = None,
                       initargs: tuple = ()) -> Executor:
        """A fresh executor with ``workers`` slots (``submit`` semantics).

        ``initializer(*initargs)`` runs once per worker as it spawns; backends
        that degrade to inline execution run it on the calling thread instead,
        so code inside a scope may rely on it having run wherever tasks run.
        """

    def _new_executor(self, workers: int, initializer: Callable | None = None,
                      initargs: tuple = ()) -> Executor:
        """:meth:`_make_executor` plus ``pool_spinups`` and the BLAS budget."""
        pool = self._make_executor(workers, initializer, initargs)
        if isinstance(pool, _SerialExecutor):
            return pool
        self.pool_spinups += 1
        if self.budget_in_parent and workers > 1:
            return _BudgetedExecutor(pool, _BLAS_BUDGETS.acquire(workers))
        return pool

    # -- persistent scope ---------------------------------------------------
    def _scope_stack(self) -> list:
        """This thread's stack of active persistent scopes (lazily created)."""
        local = self.__dict__.get("_persistent_local")
        if local is None:
            local = self.__dict__["_persistent_local"] = threading.local()
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        return stack

    def _active_scope(self) -> "PersistentPool | None":
        """The innermost persistent scope entered *by the calling thread*.

        Calls from any other thread (pool workers fanning out again) see
        ``None`` and keep the historic fresh-pool behaviour — reusing the
        scope's pool from inside one of its own workers would deadlock.
        """
        local = self.__dict__.get("_persistent_local")
        stack = getattr(local, "stack", None) if local is not None else None
        return stack[-1] if stack else None

    def _persistent_inline(self) -> bool:
        """True when a persistent scope must degrade to inline execution."""
        return False

    @contextlib.contextmanager
    def persistent(self, workers: int | None = None,
                   initializer: Callable | None = None, initargs: tuple = ()):
        """One long-lived pool backing every map/executor call in this scope.

        Yields the :class:`PersistentPool` (or ``None`` when the scope
        degrades: the ``serial`` backend, a resolved worker count of 1, or a
        nested process-pool worker — in which case ``initializer(*initargs)``
        still runs, inline, preserving the once-per-worker contract).  Only
        calls from the thread that entered the scope reuse the pool; see
        :meth:`_active_scope`.  The pool is shut down (waiting for stragglers)
        when the scope exits, even on error.
        """
        # resolve against an unbounded item count: the scope serves maps of
        # many different sizes, so per-call clamping happens at map() time
        resolved = self.resolve_workers(workers, sys.maxsize)
        if resolved == 1 or self._persistent_inline():
            if initializer is not None:
                initializer(*initargs)
            yield None
            return
        pool = self._new_executor(resolved, initializer, initargs)
        scope = PersistentPool(pool, resolved)
        stack = self._scope_stack()
        stack.append(scope)
        try:
            with pool:
                yield scope
        finally:
            stack.remove(scope)

    # -- pickling: thread-local scope state stays on this side --------------
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_persistent_local", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    # -----------------------------------------------------------------------
    def executor(self, workers: int | None = None, n_items: int | None = None) -> Executor:
        """A context-managed executor for callers that need ``submit``.

        ``n_items`` (when known) participates in worker resolution exactly as
        in :meth:`map`; without it the requested (or default) count is used
        unclamped.  Inside a persistent scope (entered on this thread) the
        returned executor is a non-owning view of the scope's pool whose
        ``shutdown`` is a no-op — the scope's worker count wins over
        ``workers``.
        """
        if n_items is not None:
            resolved = self.resolve_workers(workers, n_items)
        else:
            if workers is not None and workers < 1:
                raise ValueError("workers must be >= 1")
            resolved = max(1, workers if workers is not None else self.default_workers())
        scope = self._active_scope()
        if scope is not None and resolved > 1:
            return _ScopedExecutor(scope.executor)
        return self._new_executor(resolved)

    def map(self, func: Callable[[T], R], items: Sequence[T],
            workers: int | None = None, chunksize: int | None = None) -> list[R]:
        """Apply ``func`` to every item, preserving order.

        With one resolved worker (or zero/one items) the call degenerates to a
        plain sequential loop on the calling thread, which keeps the behaviour
        deterministic for tests and avoids pool startup.  An exception raised
        by any ``func`` call propagates to the caller on every backend.

        ``chunksize`` batches items per task dispatch where the backend
        supports it (processes); ``None`` picks a batch that spreads the items
        about four tasks deep per worker to amortize pickling overhead.

        Inside a persistent scope entered on the calling thread, the scope's
        pool serves the map instead of a fresh one.
        """
        items = list(items)
        if not items:
            return []
        workers = self.resolve_workers(workers, len(items))
        if workers == 1:
            return [func(item) for item in items]
        scope = self._active_scope()
        if scope is not None:
            return scope.map(func, items, chunksize)
        return self._map_concurrent(func, items, workers, chunksize)

    def _map_concurrent(self, func: Callable[[T], R], items: list[T],
                        workers: int, chunksize: int | None) -> list[R]:
        with self._new_executor(workers) as pool:
            return list(pool.map(func, items))

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"{type(self).__name__}(name={self.name!r})"


class SerialBackend(ExecutionBackend):
    """Sequential execution on the calling thread (the reference semantics)."""

    name = "serial"

    def default_workers(self) -> int:
        return 1

    def resolve_workers(self, workers: int | None, n_items: int) -> int:
        # validate like the pooled backends, but serial is always one worker
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        return 1

    def _make_executor(self, workers: int, initializer: Callable | None = None,
                       initargs: tuple = ()) -> Executor:
        if initializer is not None:
            initializer(*initargs)
        return _SerialExecutor()


class ThreadBackend(ExecutionBackend):
    """Thread-pool execution (GIL-sharing; best for BLAS / I/O overlap)."""

    name = "thread"
    gil_bound = True
    budget_in_parent = True

    def default_workers(self) -> int:
        # the ThreadPoolExecutor heuristic: a few threads beyond the core
        # count keep I/O-ish work (simulated transfers, zlib) overlapped
        return min(32, (os.cpu_count() or 1) + 4)

    def _make_executor(self, workers: int, initializer: Callable | None = None,
                       initargs: tuple = ()) -> Executor:
        return ThreadPoolExecutor(max_workers=workers, initializer=initializer,
                                  initargs=initargs)


class ProcessBackend(ExecutionBackend):
    """Process-pool execution (GIL-free; requires picklable tasks).

    The mapped function must be defined at module level and its arguments and
    results must pickle — the contract every task function in
    ``repro.compressors.huffman``, ``repro.core.pipeline``, and
    ``repro.fl.simulation`` honours.  Inside a process-pool worker the backend
    degrades to sequential execution, so nested fan-outs stay flat.
    """

    name = "process"
    shared_memory = False
    pickles_arguments = True

    def default_workers(self) -> int:
        # one process per core: unlike threads there is nothing to overlap
        # past the cores, so the thread heuristic (+4) would oversubscribe
        return os.cpu_count() or 1

    def _persistent_inline(self) -> bool:
        # never nest: a persistent scope opened inside a process-pool worker
        # degrades to inline execution, mirroring the map() degrade
        return _in_process_worker()

    def _make_executor(self, workers: int, initializer: Callable | None = None,
                       initargs: tuple = ()) -> Executor:
        if _in_process_worker():
            # never nest: submit-style use inside a process-pool worker runs
            # inline, mirroring the map() degrade
            if initializer is not None:
                initializer(*initargs)
            return _SerialExecutor()
        _blas_api()  # probe once here: forked workers inherit the result
        return ProcessPoolExecutor(max_workers=workers,
                                   initializer=_process_worker_init,
                                   initargs=(initializer, initargs, workers))

    def _map_concurrent(self, func: Callable[[T], R], items: list[T],
                        workers: int, chunksize: int | None) -> list[R]:
        if _in_process_worker():
            return [func(item) for item in items]
        if chunksize is None:
            chunksize = max(1, len(items) // (workers * 4))
        with self._new_executor(workers) as pool:
            return list(pool.map(func, items, chunksize=chunksize))


class SubinterpreterBackend(ExecutionBackend):
    """Per-subinterpreter execution (PEP 734) on Python 3.13+.

    Each worker runs in its own interpreter — with its own GIL — inside one
    process: GIL-free scaling like ``process`` with cheaper worker startup
    and no fork.  The executor pickles tasks and arguments across the
    interpreter boundary, so the picklability contract is exactly
    :class:`ProcessBackend`'s (and ``pickles_arguments`` is set: arena
    shipping applies here too).

    The backend is registered on every interpreter so tooling can list it,
    but :meth:`map` / :meth:`executor` raise :class:`ValueError` when
    :class:`concurrent.futures.InterpreterPoolExecutor` is absent.
    """

    name = "subinterpreter"
    shared_memory = False
    pickles_arguments = True
    budget_in_parent = True

    @staticmethod
    def supported() -> bool:
        """True when this interpreter can create subinterpreter pools."""
        return hasattr(futures, "InterpreterPoolExecutor")

    def _require_support(self) -> None:
        if not self.supported():
            raise ValueError(
                "the 'subinterpreter' backend requires Python >= 3.13 "
                "(concurrent.futures.InterpreterPoolExecutor); this is "
                f"Python {sys.version.split()[0]} — use 'process' instead")

    def default_workers(self) -> int:
        # like processes: one interpreter per core, nothing to overlap past
        return os.cpu_count() or 1

    def map(self, func: Callable[[T], R], items: Sequence[T],
            workers: int | None = None, chunksize: int | None = None) -> list[R]:
        # raise the version error even for the workers==1 sequential degrade:
        # a backend that silently works single-worker but fails at 4 would be
        # a debugging trap
        self._require_support()
        return super().map(func, items, workers=workers, chunksize=chunksize)

    def executor(self, workers: int | None = None, n_items: int | None = None) -> Executor:
        self._require_support()
        return super().executor(workers, n_items)

    def _make_executor(self, workers: int, initializer: Callable | None = None,
                       initargs: tuple = ()) -> Executor:
        self._require_support()
        return futures.InterpreterPoolExecutor(max_workers=workers,
                                               initializer=initializer,
                                               initargs=initargs)


# ----------------------------------------------------------------------
# Shared-memory shipping for pickling backends
# ----------------------------------------------------------------------

#: Arrays inside an arena segment start on this many bytes, so every view is
#: as aligned as a freshly allocated ndarray.
_ARENA_ALIGN = 64


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without claiming ownership of it.

    Attaching normally registers the segment with
    ``multiprocessing.resource_tracker``, which unlinks it when *this*
    process exits — destroying a segment the creating side still owns.
    Python 3.13 grew ``track=False`` for exactly this; on older interpreters
    the segment is unregistered immediately after attach.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        # Registering-then-unregistering is NOT equivalent: pool workers share
        # the parent's tracker process, whose cache is a set keyed by name, so
        # a worker's unregister message would erase the parent's own
        # registration.  Suppress the registration instead.
        from multiprocessing import resource_tracker
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


@dataclass(frozen=True)
class ArenaHandle:
    """Picklable description of a :class:`SharedMemoryArena` segment.

    Carries the segment name plus one ``(key, dtype, shape, offset)`` spec
    per array — a few hundred bytes regardless of tensor sizes, which is the
    point: tasks on a ``pickles_arguments`` backend ship this handle instead
    of serialized copies of the buffers.
    """

    segment: str
    specs: "tuple[tuple[str, str, tuple[int, ...], int], ...]"

    def open(self) -> "ArenaView":
        """Attach to the segment (typically inside a worker)."""
        return ArenaView(self)

    def load(self) -> "dict[str, np.ndarray]":
        """Attach, copy every array out, detach — the simple safe accessor."""
        with self.open() as view:
            return view.arrays(copy=True)


class ArenaView:
    """A live attachment to an arena segment (context-managed).

    ``arrays(copy=False)`` returns read-only zero-copy views into the shared
    segment; they are valid only while the view is open, and every reference
    to them must be dropped before :meth:`close` (an exported buffer turns
    the detach into a :class:`BufferError`).  Use ``copy=True`` for arrays
    that outlive the view.
    """

    def __init__(self, handle: ArenaHandle) -> None:
        self._handle = handle
        self._shm = _attach_segment(handle.segment)

    def arrays(self, copy: bool = False) -> "dict[str, np.ndarray]":
        """The packed arrays, keyed as they were packed (insertion order)."""
        out: dict[str, np.ndarray] = {}
        for key, dtype, shape, offset in self._handle.specs:
            arr = np.ndarray(shape, dtype=np.dtype(dtype),
                             buffer=self._shm.buf, offset=offset)
            if copy:
                arr = arr.copy()
            else:
                arr.flags.writeable = False
            out[key] = arr
        return out

    def close(self) -> None:
        self._shm.close()

    def __enter__(self) -> "ArenaView":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SharedMemoryArena:
    """Ship NumPy buffers to pickling backends without pickling them.

    Packs a mapping of arrays into one ``multiprocessing.shared_memory``
    segment; the picklable :attr:`handle` names the segment and where each
    array lives inside it, so a ``process`` (or ``subinterpreter``) task
    receives kilobytes of metadata instead of a serialized copy of every
    tensor.  Only worth using on backends with the ``pickles_arguments``
    trait — in-process backends see the caller's arrays anyway.

    Lifecycle: the creating side owns the segment.  It packs, hands
    :attr:`handle` to its tasks, and calls :meth:`close` (or exits the
    ``with`` block) once every task has finished.  Workers attach via
    ``handle.open()`` / ``handle.load()``; attachment never registers with
    the resource tracker, so a worker exiting cannot unlink the parent's
    segment.
    """

    def __init__(self, arrays: "Mapping[str, np.ndarray]") -> None:
        specs: list[tuple[str, str, tuple[int, ...], int]] = []
        packed: list[tuple[int, np.ndarray]] = []
        offset = 0
        for key, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            offset = -(-offset // _ARENA_ALIGN) * _ARENA_ALIGN
            specs.append((str(key), arr.dtype.str, tuple(arr.shape), offset))
            packed.append((offset, arr))
            offset += arr.nbytes
        # SharedMemory rejects size=0; an empty arena still needs a segment
        self._shm = shared_memory.SharedMemory(create=True, size=max(1, offset))
        for off, arr in packed:
            dest = np.ndarray(arr.shape, dtype=arr.dtype,
                              buffer=self._shm.buf, offset=off)
            dest[...] = arr
            del dest  # release the buffer export before any close/unlink
        self.handle = ArenaHandle(self._shm.name, tuple(specs))
        self._closed = False

    @property
    def nbytes(self) -> int:
        """Allocated segment size in bytes (alignment padding included)."""
        return self._shm.size

    def close(self) -> None:
        """Detach and destroy the segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass

    def __enter__(self) -> "SharedMemoryArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


_BACKENDS: dict[str, ExecutionBackend] = {}


def register_backend(backend: ExecutionBackend) -> ExecutionBackend:
    """Add ``backend`` to the registry (keyed by its ``name``) and return it."""
    if not backend.name or backend.name == "base":
        raise ValueError("backend must define a non-default name")
    _BACKENDS[backend.name] = backend
    return backend


register_backend(SerialBackend())
register_backend(ThreadBackend())
register_backend(ProcessBackend())
register_backend(SubinterpreterBackend())


def available_backends() -> tuple[str, ...]:
    """Registered backend names, in registration order."""
    return tuple(_BACKENDS)


def get_backend(backend: "str | ExecutionBackend") -> ExecutionBackend:
    """Resolve a backend name to its registry instance.

    Instances pass through unchanged, so APIs can accept either form.  An
    unknown name raises :class:`ValueError` with the available choices (the
    CLI surfaces this as a one-line error).
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    try:
        return _BACKENDS[backend]
    except KeyError:
        raise ValueError(f"unknown execution backend {backend!r}; available: "
                         f"{', '.join(available_backends())}") from None


def resolve_worker_count(max_workers: int | None, n_items: int,
                         backend: "str | ExecutionBackend" = "thread") -> int:
    """Effective number of workers for ``n_items`` units of work on ``backend``.

    ``None`` resolves to the backend default — ``min(32, cpu_count + 4)`` for
    threads, ``cpu_count`` for processes, always 1 for serial — and the result
    is clamped to ``n_items`` (never spawn idle workers) and to a floor of 1.
    """
    return get_backend(backend).resolve_workers(max_workers, n_items)


def map_parallel(func: Callable[[T], R], items: Sequence[T],
                 max_workers: int | None = None,
                 backend: "str | ExecutionBackend" = "thread",
                 chunksize: int | None = None) -> list[R]:
    """Apply ``func`` to every item on the named backend, preserving order.

    The historic thread-pool helper, now a thin wrapper over
    :meth:`ExecutionBackend.map`; ``backend="serial"`` (or ``max_workers=1``
    on any backend) is the plain sequential loop.  The ``process`` backend
    requires ``func`` and the items to satisfy the picklability contract
    documented on :class:`ProcessBackend`.
    """
    return get_backend(backend).map(func, items, workers=max_workers,
                                    chunksize=chunksize)
