"""Deterministic process-pool racing and result memoisation.

The paper's GP partitioner is a race of randomized attempts: evolve's
seeding members, coarsen/partition retry cycles, per-level refinement
candidates.  Every attempt is independent given its seed, and all seeds
are derived up front with :func:`repro.util.rng.spawn_seeds` — so racing
attempts across worker processes cannot change any result, only the
wall-clock.  This module supplies the primitives the partitioning layer
builds on (see ``docs/parallel.md``):

``parallel_map``
    An order-preserving map over picklable tasks with an optional
    early-stop predicate.  Its contract is the determinism guarantee:
    **the returned list is identical for every ``n_jobs``**, because
    results are collected in submission order and the stop predicate is
    applied in that order, exactly as a serial loop would.  With
    ``n_jobs=1`` (or an unavailable pool) no processes are spawned at
    all, which doubles as the fallback path on platforms without a
    usable ``fork``/``spawn``.

``KeyedCache`` / ``memo_cache`` / ``memoised``
    A small LRU, and the one instance of it that memoises full
    partitioning runs keyed by ``(namespace, content digest, k,
    constraints, configs, ..., seed)``.  :func:`memoised` holds the memo
    policy every memoising entry point shares (which seeds are
    cacheable, copies in and out).  The cache can be layered over a
    persistent backend (``repro.util.diskcache.DiskCache``) so memoised
    results survive the process — the seam ``repro serve`` builds on
    (see ``docs/serve.md``).

``start_warm_pool`` / ``stop_warm_pool``
    A long-lived shared worker pool that ``parallel_map`` reuses across
    calls instead of forking a fresh pool per call — the serve daemon's
    compute worker keeps one warm across requests.  Its workers exit
    when the process that started them dies (:func:`exit_with_parent`).
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import numbers
import os
from collections import OrderedDict
from collections.abc import Callable, Sequence
from typing import Any

import repro.obs as _obs
from repro.util.errors import ReproError

__all__ = [
    "resolve_jobs",
    "parallel_map",
    "KeyedCache",
    "memo_cache",
    "memoised",
    "start_warm_pool",
    "stop_warm_pool",
    "warm_pool_size",
    "exit_with_parent",
    "start_method",
]


def _visible_cpus() -> int:
    """CPUs genuinely available to this process.

    ``os.cpu_count()`` reports the machine, not the process: under a
    cgroup CPU quota or an affinity mask (containers, ``taskset``,
    batch schedulers) it overcounts and ``-1`` would oversubscribe the
    pool.  Prefer ``os.process_cpu_count()`` (3.13+), then the
    affinity mask, and fall back to ``os.cpu_count()`` last.
    """
    process_cpu_count = getattr(os, "process_cpu_count", None)
    if process_cpu_count is not None:
        n = process_cpu_count()
        if n:
            return n
    sched_getaffinity = getattr(os, "sched_getaffinity", None)
    if sched_getaffinity is not None:
        try:
            n = len(sched_getaffinity(0))
        except OSError:  # pragma: no cover - platform-dependent
            n = 0
        if n:
            return n
    return os.cpu_count() or 1


def resolve_jobs(n_jobs: int | None) -> int:
    """Normalise an ``n_jobs`` knob to a concrete worker count.

    ``None`` and ``1`` mean serial; ``-1`` means one worker per CPU
    *available to this process* (cgroup/affinity aware — see
    :func:`_visible_cpus`); any other positive integer is taken as
    given.  Raises :class:`~repro.util.errors.ReproError` on zero or
    other negatives.
    """
    if n_jobs is None:
        return 1
    n_jobs = int(n_jobs)
    if n_jobs == -1:
        return max(1, _visible_cpus())
    if n_jobs < 1:
        raise ReproError(f"n_jobs must be >= 1 or -1 (all CPUs), got {n_jobs}")
    return n_jobs


class _Marker:
    """A sentinel that unpickles as itself.

    A bare ``object()`` sentinel loses its identity when it is pickled
    into a worker; this one pickles by its module-level name instead.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __reduce__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"<{self.name}>"


#: No shared payload: *fn* is called as ``fn(task)``.
_NO_CONTEXT = _Marker("_NO_CONTEXT")
#: The payload an owned pool's initializer installed in the worker.
_POOL_CONTEXT = _Marker("_POOL_CONTEXT")
_WORKER_CONTEXT: Any = _NO_CONTEXT


def _set_worker_context(ctx) -> None:
    """Pool initializer: stash the shared per-call payload in the worker."""
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = ctx


class _ObsResult:
    """A worker result plus the child-process observability capture.

    When the parent has instrumentation on, workers run each task inside
    their own :func:`repro.obs.capture` and ship the picklable payload
    (span trees + metric deltas) back alongside the value.  The parent
    unwraps in submission order — so merged metrics are deterministic at
    any ``n_jobs`` — before the stop predicate ever sees the value.
    """

    __slots__ = ("value", "payload")

    def __init__(self, value, payload) -> None:
        self.value = value
        self.payload = payload


def _run_task(fn, ctx, task, trace):
    """Run one task — the single entry of every worker and the serial loop.

    *ctx* is the shared payload, :data:`_NO_CONTEXT` (call ``fn(task)``)
    or :data:`_POOL_CONTEXT` (the payload the pool initializer
    installed).  When *trace* is not ``None`` the task runs inside an
    observability capture (spans included iff *trace* is true) and the
    result comes back as an :class:`_ObsResult`.
    """
    if ctx is _POOL_CONTEXT:
        ctx = _WORKER_CONTEXT
    if trace is None:
        return fn(task) if ctx is _NO_CONTEXT else fn(ctx, task)
    # A fork-started worker inherits the parent's registry contents; a
    # gauge write equal to the inherited value would then vanish from
    # the task delta, making the merge depend on fork timing.  A worker
    # registry exists only to compute per-task deltas, so start clean.
    _obs.REGISTRY.reset()
    with _obs.capture(tracing=trace) as cap:
        res = fn(task) if ctx is _NO_CONTEXT else fn(ctx, task)
    return _ObsResult(res, cap.payload())


def _unwrap(res):
    """Absorb a shipped child capture (if any) and return the bare value."""
    if isinstance(res, _ObsResult):
        _obs.absorb_payload(res.payload)
        return res.value
    return res


def _serial_map(fn, tasks, stop, context):
    out = []
    for task in tasks:
        res = _run_task(fn, context, task, None)
        out.append(res)
        if stop is not None and stop(res):
            break
    return out


# --------------------------------------------------------------------- #
# warm pool: a shared long-lived executor for daemon-style callers
# --------------------------------------------------------------------- #
_WARM_POOL = None
_WARM_POOL_JOBS = 0


def start_warm_pool(n_jobs: int | None = -1) -> int:
    """Install a long-lived worker pool that :func:`parallel_map` reuses.

    Every subsequent ``parallel_map`` call with ``n_jobs > 1`` submits to
    this shared pool instead of forking a fresh ``ProcessPoolExecutor``
    per call — the per-call fork/teardown cost disappears, which is what
    makes a long-running daemon (``repro serve``) answer warm.  Shared
    *context* payloads then ship with every task rather than once per
    worker (a long-lived pool cannot take a per-call initializer); the
    determinism contract is unaffected because submission order and
    result order are unchanged.  The workers start before this returns.
    Returns the worker count, or ``0`` when no pool could be created
    (serial platforms).  Replaces any previous warm pool.
    """
    global _WARM_POOL, _WARM_POOL_JOBS
    stop_warm_pool()
    n = resolve_jobs(n_jobs)
    if n <= 1:
        return 0
    import multiprocessing
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    try:
        pool = ProcessPoolExecutor(
            max_workers=n,
            mp_context=multiprocessing.get_context(start_method()),
            initializer=exit_with_parent,
        )
    except Exception:  # pragma: no cover - platform-dependent
        return 0
    try:
        # start the workers now, before any later thread of this process
        # exists for them to inherit
        pool.submit(int).result()
    except BrokenExecutor:  # pragma: no cover - a worker failed to start
        pool.shutdown(wait=True)
        return 0
    _WARM_POOL, _WARM_POOL_JOBS = pool, n
    return n


def start_method() -> str:
    """``"fork"`` while this process has one thread and can fork, else
    ``"spawn"``.

    A fork copies every lock some other thread holds at that instant, and
    no thread in the child would release it.  The rule reads the process
    itself, not multiprocessing's default, which a spawn-started process
    inherits as ``"spawn"``.
    """
    import multiprocessing
    import threading

    if (
        threading.active_count() == 1
        and "fork" in multiprocessing.get_all_start_methods()
    ):
        return "fork"
    return "spawn"


def exit_with_parent() -> None:
    """Pool initializer: end this worker process when its parent dies.

    An idle pool worker blocks reading its task queue, and a fork-started
    one holds that queue's write end itself, so a killed parent leaves it
    waiting forever.  A daemon thread waits on the parent's sentinel
    instead and exits the worker when it fires.
    """
    import multiprocessing.connection
    import threading

    parent = multiprocessing.parent_process()
    if parent is None:
        return

    def watch() -> None:
        multiprocessing.connection.wait([parent.sentinel])
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent", daemon=True).start()


def stop_warm_pool() -> None:
    """Shut down the shared warm pool (no-op when none is installed)."""
    global _WARM_POOL, _WARM_POOL_JOBS
    pool, _WARM_POOL, _WARM_POOL_JOBS = _WARM_POOL, None, 0
    if pool is not None:
        pool.shutdown(wait=True, cancel_futures=True)


def warm_pool_size() -> int:
    """Worker count of the installed warm pool (``0`` when none)."""
    return _WARM_POOL_JOBS if _WARM_POOL is not None else 0


def _discard_broken_warm_pool() -> None:
    global _WARM_POOL, _WARM_POOL_JOBS
    pool, _WARM_POOL, _WARM_POOL_JOBS = _WARM_POOL, None, 0
    if pool is not None:
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - defensive
            pass


def _get_executor(fn, context, n_jobs, n_tasks, trace=None):
    """Per-call pool — or the shared warm pool when one is installed.

    Returns ``(executor, submit, owned)``; only an *owned* (per-call)
    executor may be shut down by the caller.  An owned pool receives the
    *context* once per worker through its initializer; on the warm pool
    it travels with every task.  *trace* is handed to :func:`_run_task`.
    """
    from concurrent.futures import ProcessPoolExecutor

    executor = _WARM_POOL
    owned = executor is None
    if owned:
        executor = ProcessPoolExecutor(
            max_workers=min(n_jobs, n_tasks),
            initializer=_set_worker_context,
            initargs=(context,),
        )
        context = _POOL_CONTEXT

    def submit(task):
        return executor.submit(_run_task, fn, context, task, trace)

    return executor, submit, owned


def parallel_map(
    fn: Callable[..., Any],
    tasks: Sequence[Any],
    n_jobs: int | None = 1,
    stop: Callable[[Any], bool] | None = None,
    context: Any = _NO_CONTEXT,
) -> list[Any]:
    """Map *fn* over *tasks*, racing up to *n_jobs* worker processes.

    Returns ``[fn(t) for t in tasks]`` truncated — when *stop* is given —
    right after the first result (in **task order**) for which
    ``stop(result)`` is true.  The output is bit-identical for every
    ``n_jobs``: parallel execution only reorders *work*, never results.
    Tasks and results must be picklable and *fn* must be a module-level
    callable when ``n_jobs > 1``.

    *context* carries a payload shared by every task — typically the
    graph and constraints, which dwarf the per-task seeds.  When given,
    *fn* is called as ``fn(context, task)`` and the payload is shipped
    **once per worker** (through the pool initializer) instead of once
    per task — except on a warm pool, where it travels with each task.

    With a *stop* predicate, workers run in submission waves of
    ``n_jobs`` so an early stop cancels everything not yet needed;
    without one, all tasks are submitted up front (no wave barrier).  A
    pool that cannot be created (restricted platforms, missing
    semaphores) or that breaks mid-flight because a worker died
    (``BrokenProcessPool``) degrades silently to the serial path, which
    is also taken for ``n_jobs=1`` or single tasks.  Exceptions *raised
    by fn* propagate to the caller exactly like serial ones — pending
    tasks are cancelled first (``cancel_futures``), so one failing task
    never blocks on the rest of the batch.

    When observability is on (:func:`repro.obs.active`), every call is
    wrapped in a ``parallel_map`` span (waves get child spans) and each
    worker task runs inside its own child-process capture whose spans
    and metric deltas ship back with the result and are absorbed **in
    submission order** — merged series are therefore identical for
    every ``n_jobs``.  (The one wrinkle: a mid-flight
    ``BrokenProcessPool`` falls back to serial recomputation, so
    metrics from tasks absorbed before the break count twice; results
    are unaffected.)  When off, this function is byte-for-byte the
    uninstrumented path plus one branch.
    """
    n_jobs = resolve_jobs(n_jobs)
    tasks = list(tasks)
    obs_on = _obs.active()
    if n_jobs == 1 or len(tasks) <= 1:
        if not obs_on:
            return _serial_map(fn, tasks, stop, context)
        with _obs.trace_span(
            "parallel_map", tasks=len(tasks), jobs=1, mode="serial"
        ):
            res = _serial_map(fn, tasks, stop, context)
            _obs.add("pool.tasks", len(res), mode="serial")
            return res
    from concurrent.futures import BrokenExecutor

    trace = _obs.tracing_on() if obs_on else None
    outer = _obs.trace_span("parallel_map", tasks=len(tasks), jobs=n_jobs)
    with outer:
        try:
            executor, submit, owned = _get_executor(
                fn, context, n_jobs, len(tasks), trace
            )
        except Exception:  # pragma: no cover - platform-dependent
            outer.set(mode="serial")
            res = _serial_map(fn, tasks, stop, context)
            if obs_on:
                _obs.add("pool.tasks", len(res), mode="serial")
            return res
        mode = "pool" if owned else "warm"
        outer.set(mode=mode)
        if obs_on:
            _obs.gauge_set(
                "pool.workers",
                min(n_jobs, len(tasks)) if owned else _WARM_POOL_JOBS,
            )

        def _fail_fast(futures) -> None:
            # a task raised: drop everything not yet running before the
            # re-raise, so the failure doesn't block on the rest of the batch
            if owned:
                executor.shutdown(wait=False, cancel_futures=True)
            else:
                for fut in futures:
                    fut.cancel()

        out: list[Any] = []
        # without a stop predicate no early exit is possible: one wave of
        # every task, so no worker idles at a wave boundary; with one,
        # waves of n_jobs bound the speculation an early stop discards
        wave_len = len(tasks) if stop is None else n_jobs
        try:
            try:
                for wave_start in range(0, len(tasks), wave_len):
                    wave = tasks[wave_start : wave_start + wave_len]
                    if stop is None:
                        span = contextlib.nullcontext()
                    else:
                        if obs_on:
                            _obs.add("pool.waves", mode=mode)
                        span = _obs.trace_span(
                            "parallel_map.wave",
                            wave=wave_start // n_jobs,
                            size=len(wave),
                        )
                    with span:
                        futures = [submit(t) for t in wave]
                        stopped = False
                        try:
                            for fut in futures:
                                res = _unwrap(fut.result())
                                out.append(res)
                                if stop is not None and stop(res):
                                    stopped = True
                                    break
                        except BrokenExecutor:
                            raise
                        except BaseException:
                            _fail_fast(futures)
                            raise
                    if stopped:
                        for fut in futures:
                            fut.cancel()
                        break
                if obs_on:
                    _obs.add("pool.tasks", len(out), mode=mode)
                return out
            except BrokenExecutor:
                # the pool itself died (worker OOM-killed, pipes torn down) —
                # an infrastructure failure, not a task failure: recompute
                # serially.  Exceptions raised by fn inside a live pool
                # re-raise above as-is.
                if not owned:
                    _discard_broken_warm_pool()
                res = _serial_map(fn, tasks, stop, context)
                if obs_on:
                    _obs.add("pool.serial_fallbacks")
                    _obs.add("pool.tasks", len(res), mode="serial")
                return res
        finally:
            if owned:
                executor.shutdown(wait=True)


class KeyedCache:
    """Bounded LRU cache for partitioning results (or anything hashable-keyed).

    ``lookup`` returns ``(hit, value)`` so a legitimately cached ``None``
    (or other falsy value) is distinguishable from a miss; ``get``
    returns *default* on a miss and refreshes recency on a hit; ``put``
    inserts/overwrites and evicts the least-recently-used entry beyond
    *maxsize*.  ``stats()`` reports hits/misses/size for benchmarks and
    tests.

    A *backend* (any object with ``lookup(key) -> (hit, value)`` and
    ``put(key, value)`` — canonically
    :class:`repro.util.diskcache.DiskCache`) layers a persistent second
    level underneath: in-memory misses consult it (hits are promoted
    into memory and counted under ``backend_hits``), and every ``put``
    writes through.  ``clear()`` drops the in-memory level only — the
    backend is shared, persistent state; clear it explicitly.

    Not thread-safe beyond the backend's own locking (the library races
    *processes*, and each process owns its cache); the serve daemon
    wraps lookups in its single-flight layer.

    *name* labels this cache's series in the unified observability
    registry (``cache.lookups{cache=<name>, outcome=hit|backend_hit|miss}``
    and ``cache.puts{cache=<name>}``); the local ``hits``/``misses``
    counters remain for ``stats()`` compatibility.
    """

    def __init__(self, maxsize: int = 128, backend=None,
                 name: str = "keyed") -> None:
        if maxsize < 1:
            raise ReproError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = int(maxsize)
        self.name = name
        self._data: OrderedDict[Any, Any] = OrderedDict()
        self.backend = backend
        self.hits = 0
        self.misses = 0
        self.backend_hits = 0

    def set_backend(self, backend) -> None:
        """Attach (or with ``None`` detach) the persistent second level."""
        self.backend = backend

    def lookup(self, key) -> tuple[bool, Any]:
        """Return ``(True, value)`` on a hit, ``(False, None)`` on a miss.

        The two-tuple spelling is the one the memoisation call sites use:
        it keeps a cached ``None``/falsy result a *hit* instead of
        recomputing it forever while inflating ``misses``.
        """
        try:
            value = self._data[key]
        except KeyError:
            pass
        else:
            self._data.move_to_end(key)
            self.hits += 1
            _obs.cache_event(self.name, "hit")
            return True, value
        if self.backend is not None:
            found, value = self.backend.lookup(key)
            if found:
                self._insert(key, value)
                self.hits += 1
                self.backend_hits += 1
                _obs.cache_event(self.name, "backend_hit")
                return True, value
        self.misses += 1
        _obs.cache_event(self.name, "miss")
        return False, None

    def get(self, key, default=None):
        """Value for *key*, or *default* on a miss (pass a private
        sentinel as *default* to disambiguate cached falsy values, or use
        :meth:`lookup` directly)."""
        found, value = self.lookup(key)
        return value if found else default

    def _insert(self, key, value) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def put(self, key, value) -> None:
        self._insert(key, value)
        _obs.add("cache.puts", cache=self.name)
        if self.backend is not None:
            self.backend.put(key, value)

    def lookup_result(self, key) -> tuple[bool, Any]:
        """:meth:`lookup` for memoised result dataclasses (``assign`` and
        ``info`` fields): a hit is delivered as a fresh copy flagged
        ``info["cache_hit"] = True``, so callers never alias the stored
        entry."""
        found, value = self.lookup(key)
        if found:
            value = dataclasses.replace(
                value,
                assign=value.assign.copy(),
                info={**copy.deepcopy(value.info), "cache_hit": True},
            )
        return found, value

    def put_result(self, key, result) -> None:
        """:meth:`put` a copy of *result* (the counterpart of
        :meth:`lookup_result`): later mutation of the caller's result
        cannot reach the stored entry."""
        self.put(
            key,
            dataclasses.replace(
                result,
                assign=result.assign.copy(),
                info=copy.deepcopy(result.info),
            ),
        )

    def clear(self) -> None:
        """Drop the in-memory level and reset counters (backend untouched)."""
        self._data.clear()
        self.hits = 0
        self.misses = 0
        self.backend_hits = 0

    def stats(self) -> dict:
        out = {"size": len(self._data), "hits": self.hits, "misses": self.misses}
        if self.backend is not None:
            out["backend_hits"] = self.backend_hits
            out["backend"] = self.backend.stats()
        return out

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data or (
            self.backend is not None and key in self.backend
        )


#: The one in-process memo of completed partitioning runs
#: (:func:`~repro.evolve.ea.evolve_partition` and
#: :func:`~repro.partition.multires.mr_gp_partition`).  Keys are tuples
#: namespaced by their first element, so the two share one LRU and one
#: persistent backend (``repro.core.api.configure_cache_backend``).
memo_cache = KeyedCache(maxsize=128, name="memo")


def memoised(key: tuple, seed, compute: Callable[[], Any],
             enabled: bool = True):
    """``compute()``, memoised in :data:`memo_cache` under ``(*key, seed)``.

    The memo policy of every memoising entry point lives here:

    * only ``None`` and integer seeds (numpy integers included) are
      cacheable — a live ``Generator`` is consumed by the call and cannot
      key anything; integer seeds are keyed as plain ``int``;
    * a *key* that cannot be hashed runs uncached;
    * a hit is delivered as a fresh copy flagged ``info["cache_hit"]``
      and a put stores a copy (:meth:`KeyedCache.lookup_result` /
      :meth:`KeyedCache.put_result`), so callers never alias the entry.

    *compute* must return a result dataclass with ``assign`` and
    ``info`` fields.  Infeasibility policy stays with the caller: the
    memo stores the outcome, and the caller decides whether to raise on
    whatever comes back, hit or not.  ``enabled=False`` bypasses the memo.
    """
    if not enabled or not (
        seed is None or isinstance(seed, numbers.Integral)
    ):
        return compute()
    key = (*key, None if seed is None else int(seed))
    try:
        found, result = memo_cache.lookup_result(key)
    except TypeError:
        # e.g. a config subclass smuggled in an unhashable field
        return compute()
    if found:
        return result
    result = compute()
    memo_cache.put_result(key, result)
    return result
