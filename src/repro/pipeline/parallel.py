"""Process-parallel compilation helpers (fork-based), with fault tolerance.

Swiftlet sema is whole-program (type ids and closure symbols are numbered
across modules), so the unit of parallelism is the *per-module lowering*
that follows it: SIL -> LIR -> -Osize cleanups in the frontend, and
``llc`` over the backend's partitions (one per module in the default,
Figure 2, pipeline).  :func:`lower_modules` and :func:`llc_modules` own
their serial path too: with one worker, or fewer than two jobs, they run
the same chunk function in this process.

Large read-only inputs (the SIL modules, the signature table, the LIR
modules) are handed to workers through a module-level registry populated
*before* the pool is created: with the ``fork`` start method the children
inherit the parent's heap copy-on-write, so nothing but the small work
lists and the results ever crosses a pipe.  Each concurrent build
registers its payload under a distinct token, so two ``build_program``
calls in different threads cannot clobber each other's shared state.

Failure handling is a ladder, not a cliff.  Each chunk independently gets:

1. bounded in-pool retries with backoff (a crash, timeout, or unpicklable
   result burns one attempt; a broken pool is rebuilt);
2. a serial re-run in the parent process once retries are exhausted;
3. only an error raised *by the compiler itself* during that serial
   re-run propagates — as a typed :class:`~repro.errors.ReproError`.

Every step down the ladder is recorded as a structured
:class:`~repro.pipeline.report.DegradationEvent`; none of them can change
the produced binary (bit-identical output is enforced by the determinism
and fault-injection test harnesses).
"""

from __future__ import annotations

import atexit
import concurrent.futures
import itertools
import multiprocessing
import os
import signal
import threading
import time
import weakref
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import BuildError, WorkerCrashError
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsSnapshot
from repro.obs.trace import Span, Tracer
from repro.pipeline.cancel import CancelScope, checkpoint, clamp_timeout
from repro.pipeline.config import BuildConfig
from repro.pipeline.faults import FaultPlan
from repro.pipeline.report import BuildReport

#: Read-only payloads shared with forked workers, keyed by build token.
#: Concurrent builds own distinct tokens; entries exist only while a
#: parallel phase is in flight.
_REGISTRY: Dict[int, Dict[str, object]] = {}
_REGISTRY_LOCK = threading.Lock()
_TOKENS = itertools.count(1)


def _register(payload: Dict[str, object]) -> int:
    with _REGISTRY_LOCK:
        token = next(_TOKENS)
        _REGISTRY[token] = payload
    return token


def _unregister(token: int) -> None:
    with _REGISTRY_LOCK:
        _REGISTRY.pop(token, None)


#: Every live executor, so an interrupted build (KeyboardInterrupt,
#: SIGTERM routed through an exception, daemon drain) can never leave
#: orphaned forked workers behind: `run_chunks` tears its pool down in a
#: ``finally``, and the atexit sweep catches anything that still escaped
#: (e.g. an exception thrown from a signal handler at an awkward point).
_LIVE_POOLS: "weakref.WeakSet" = weakref.WeakSet()


def _worker_init() -> None:
    """Runs in every pool worker right after the fork.

    The forking process may have Python-level SIGTERM/SIGINT handlers
    installed (the CLI's interrupt handler, the build daemon's drain
    handler) and it always has this module's atexit sweep registered —
    all inherited by the child.  A worker that keeps them turns
    ``terminate()`` into "raise KeyboardInterrupt, then run the parent's
    teardown logic against inherited pool state", which can deadlock on
    locks that were held at fork time instead of dying.  A build worker
    must simply die on SIGTERM — that is how teardown kills it.
    """
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):
        pass
    try:
        # Ctrl-C is the parent's to coordinate; a worker that dies from
        # it anyway is absorbed by the degradation ladder.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):
        pass
    # The inherited registry entries refer to the parent's pools; the
    # child's atexit must not try to tear them down.
    _LIVE_POOLS.clear()


def _teardown_pool(pool) -> None:
    """Shut a pool down *now*: cancel queued work and kill its workers.

    ``ProcessPoolExecutor.shutdown`` alone leaves running (or hung)
    workers alive; after an interrupt those become orphaned forks holding
    copy-on-write heaps.  Termination is safe at every call site because
    chunk work is pure and cache publication is atomic (a killed worker
    can at worst leave an unpublished temp file, which the cache reaps).
    """
    # Grab the worker handles *before* shutdown: even with wait=False,
    # shutdown() clears the executor's _processes map.
    processes = list((getattr(pool, "_processes", None) or {}).values())
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    for proc in processes:
        try:
            proc.terminate()
        except Exception:
            pass
    # Reap, escalating to SIGKILL for anything that survives SIGTERM
    # (e.g. a worker wedged beyond signal delivery): the bound keeps
    # teardown prompt, and joining keeps dead workers from lingering as
    # zombies in ``multiprocessing.active_children()``.
    for proc in processes:
        try:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5.0)
        except Exception:
            pass
    _LIVE_POOLS.discard(pool)


def _terminate_live_pools() -> None:
    for pool in list(_LIVE_POOLS):
        _teardown_pool(pool)


atexit.register(_terminate_live_pools)


# --- persistent pool (survives across builds) --------------------------------
#
# With ``BuildConfig.persistent_workers`` the executor is kept alive at
# module level and reused by every subsequent build in this process (the
# daemon, CLI batch runs), skipping the per-build fork+teardown.  The
# children were forked *before* any given build's inputs existed, so
# copy-on-write inheritance through ``_REGISTRY`` cannot reach them —
# persistent tasks carry their own self-contained payload instead
# (see ``_Task.payload``).  The fault ladder is unchanged: a dead or hung
# persistent pool is retired (torn down and forgotten) and the next retry
# round forks a fresh one.

_PERSISTENT_LOCK = threading.Lock()
_PERSISTENT_POOL = None
_PERSISTENT_SIZE = 0


def _acquire_persistent_pool(ctx, workers: int):
    """The shared cross-build pool, (re)created at >= ``workers`` size."""
    global _PERSISTENT_POOL, _PERSISTENT_SIZE
    with _PERSISTENT_LOCK:
        pool = _PERSISTENT_POOL
        if pool is not None and _PERSISTENT_SIZE >= workers:
            obs_trace.metrics().inc("pool.persistent_reused")
            return pool
        if pool is not None:  # too small for this build: grow by replacing
            _PERSISTENT_POOL = None
            _PERSISTENT_SIZE = 0
            _teardown_pool(pool)
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, mp_context=ctx, initializer=_worker_init)
        _LIVE_POOLS.add(pool)
        _PERSISTENT_POOL = pool
        _PERSISTENT_SIZE = workers
        obs_trace.metrics().inc("pool.persistent_created")
        return pool


def _retire_persistent_pool(pool) -> None:
    """Forget (and kill) a persistent pool that went bad."""
    global _PERSISTENT_POOL, _PERSISTENT_SIZE
    with _PERSISTENT_LOCK:
        if _PERSISTENT_POOL is pool:
            _PERSISTENT_POOL = None
            _PERSISTENT_SIZE = 0
    obs_trace.metrics().inc("pool.persistent_retired")
    _teardown_pool(pool)


def shutdown_persistent_pool() -> None:
    """Tear down the cross-build pool (daemon drain, tests, atexit)."""
    global _PERSISTENT_POOL, _PERSISTENT_SIZE
    with _PERSISTENT_LOCK:
        pool = _PERSISTENT_POOL
        _PERSISTENT_POOL = None
        _PERSISTENT_SIZE = 0
    if pool is not None:
        _teardown_pool(pool)


def resolve_workers(workers: int) -> int:
    """Translate the config knob into a worker count (0 = auto).

    Uses :func:`os.cpu_count` (which returns ``None`` rather than raising
    when the platform cannot tell, unlike ``multiprocessing.cpu_count``)
    and clamps nonsensical negative requests to serial.
    """
    if workers == 0:
        try:
            count = os.cpu_count()
        except NotImplementedError:  # exotic platforms
            count = None
        return max(1, (count or 2) - 1)
    return max(1, workers)


# --- chunk workers -----------------------------------------------------------


def _lower_chunk(payload: Dict[str, object],
                 names: Sequence[str]) -> List[Tuple[str, object]]:
    from repro.lir.irgen import ModuleIRGen
    from repro.pipeline.build import optimize_module

    sil_by_name = payload["sil_by_name"]
    signatures = payload["signatures"]
    out = []
    for name in names:
        module = ModuleIRGen(sil_by_name[name], signatures).run()
        optimize_module(module)
        out.append((name, module))
    return out


def _llc_chunk(payload: Dict[str, object],
               indices: Sequence[int]) -> List[Tuple[int, object]]:
    from repro.backend.llc import run_llc

    jobs = payload["jobs"]
    return [(i, run_llc(*jobs[i])) for i in indices]


_CHUNK_FUNCS = {"lower": _lower_chunk, "llc": _llc_chunk}


# --- pool task (runs in the worker process) ----------------------------------


@dataclass(frozen=True)
class _Task:
    """One chunk attempt shipped to a pool worker (small and picklable)."""

    kind: str
    token: int
    chunk: Tuple
    index: int
    attempt: int
    plan: Optional[FaultPlan]
    #: Self-contained inputs for this chunk.  ``None`` means "read the
    #: fork-inherited ``_REGISTRY[token]``" (per-build pools, where the
    #: children forked after registration); persistent pools forked
    #: before this build existed, so their tasks must carry everything.
    payload: Optional[Dict[str, object]] = None

    @property
    def site(self) -> str:
        return f"{self.kind}:{self.index}:a{self.attempt}"


@dataclass
class _TracedChunk:
    """A chunk result plus the worker-side observability it produced.

    ``fork`` children inherit the parent's *enabled* tracer through the
    ambient contextvar, but mutations to it die with the child — so the
    worker records into a fresh tracer and ships the finished spans and
    metrics back through the result pipe (both are plain picklable
    dataclasses).  The parent grafts them in chunk order.
    """

    result: object
    spans: List[Span]
    metrics: MetricsSnapshot


def _run_task(task: _Task):
    """Pool entry point.  Fault injection happens only here, in the worker
    process — the parent's serial re-runs call the chunk functions
    directly and are therefore immune by construction."""
    payload = (task.payload if task.payload is not None
               else _REGISTRY[task.token])
    if task.plan is not None:
        if task.plan.should_fire("worker_crash", task.site):
            os._exit(17)  # simulate a hard worker death (OOM-kill, segfault)
        if task.plan.should_fire("worker_hang", task.site):
            time.sleep(task.plan.hang_seconds)
    if obs_trace.current_tracer().enabled:
        worker_tracer = Tracer()
        with obs_trace.use_tracer(worker_tracer):
            with worker_tracer.span(f"worker-chunk:{task.kind}",
                                    kind="worker-chunk", chunk=task.index,
                                    attempt=task.attempt,
                                    size=len(task.chunk)):
                inner = _CHUNK_FUNCS[task.kind](payload, task.chunk)
        result: object = _TracedChunk(result=inner,
                                      spans=worker_tracer.roots,
                                      metrics=worker_tracer.metrics.snapshot())
    else:
        result = _CHUNK_FUNCS[task.kind](payload, task.chunk)
    if (task.plan is not None
            and task.plan.should_fire("pickle_failure", task.site)):
        return lambda: result  # lambdas don't pickle -> result send fails
    return result


# --- the degradation ladder --------------------------------------------------


def run_chunks(kind: str, payload: Dict[str, object],
               chunks: Sequence[Tuple], workers: int, *,
               plan: Optional[FaultPlan] = None,
               report: Optional[BuildReport] = None,
               phase: str = "",
               chunk_timeout: Optional[float] = None,
               max_retries: int = 2,
               retry_backoff: float = 0.05,
               fail_fast: bool = False,
               cancel_scope: Optional[CancelScope] = None,
               persistent: bool = False,
               chunk_payloads: Optional[Sequence[Dict[str, object]]] = None,
               ) -> List[object]:
    """Run every chunk to completion, degrading per-chunk as needed.

    Returns results aligned with ``chunks``.  Recoverable failures (worker
    crash, hang past ``chunk_timeout``, unpicklable result, no fork, pool
    creation failure) are absorbed by retry / serial re-run and recorded
    on ``report``; only a failure of the serial in-parent re-run — a real
    compiler error — propagates.

    With ``fail_fast=True`` the ladder is disabled: the first chunk
    failure raises a typed error (:class:`~repro.errors.WorkerCrashError`
    for a dead or hung worker, :class:`~repro.errors.BuildError`
    otherwise) instead of degrading.  Useful in CI, where a flaky worker
    should be *noticed*, not papered over.

    With ``persistent=True`` the chunks run on the shared cross-build
    pool (created on first use, reused afterwards); the caller must then
    supply ``chunk_payloads`` — one self-contained payload per chunk —
    because a pre-forked pool cannot see this build's registry entry.
    """
    if not chunks:
        return []
    if persistent and chunk_payloads is None:
        raise BuildError("persistent run_chunks requires chunk_payloads "
                         "(pre-forked workers cannot inherit the registry)")
    token = _register(payload)
    try:
        return _run_chunks_registered(
            kind, payload, chunks, workers, token, plan=plan, report=report,
            phase=phase, chunk_timeout=chunk_timeout, max_retries=max_retries,
            retry_backoff=retry_backoff, fail_fast=fail_fast,
            cancel_scope=cancel_scope, persistent=persistent,
            chunk_payloads=chunk_payloads)
    finally:
        _unregister(token)


def _degrade(report: Optional[BuildReport], kind: str, phase: str,
             detail: str, chunk: int = -1, attempt: int = 0) -> None:
    if report is not None:
        report.degrade(kind, phase=phase, detail=detail, chunk=chunk,
                       attempt=attempt)


def _run_chunks_registered(kind, payload, chunks, workers, token, *, plan,
                           report, phase, chunk_timeout, max_retries,
                           retry_backoff, fail_fast=False,
                           cancel_scope=None, persistent=False,
                           chunk_payloads=None) -> List[object]:
    results: Dict[int, object] = {}
    pending = list(range(len(chunks)))

    ctx = None
    if plan is not None and plan.fork_unavailable:
        _degrade(report, "no-fork", phase, "fault injection: fork disabled")
    else:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            _degrade(report, "no-fork", phase,
                     "platform has no fork start method")

    # The pool lives inside a try/finally: *any* exception leaving this
    # function — a fail-fast typed error, a cancellation checkpoint, a
    # KeyboardInterrupt delivered to the main thread — tears the pool
    # down (workers terminated, not just the queue drained), so an
    # interrupted build cannot leak orphaned forks.
    pool = None
    try:
        if ctx is not None:
            for attempt in range(max_retries + 1):
                if not pending:
                    break
                checkpoint(cancel_scope, f"{phase or kind} retry round")
                if pool is None:
                    try:
                        if persistent:
                            pool = _acquire_persistent_pool(ctx, workers)
                        else:
                            pool = concurrent.futures.ProcessPoolExecutor(
                                max_workers=min(workers, len(pending)),
                                mp_context=ctx, initializer=_worker_init)
                            _LIVE_POOLS.add(pool)
                    except Exception as exc:
                        _degrade(report, "pool-unavailable", phase,
                                 f"{type(exc).__name__}: {exc}")
                        break
                if attempt and retry_backoff:
                    time.sleep(retry_backoff * attempt)
                futures = {}
                for i in pending:
                    try:
                        futures[i] = pool.submit(_run_task, _Task(
                            kind=kind, token=token, chunk=tuple(chunks[i]),
                            index=i, attempt=attempt, plan=plan,
                            payload=(chunk_payloads[i] if chunk_payloads
                                     is not None else None)))
                    except BrokenProcessPool as exc:
                        # The pool can already be broken at submit time —
                        # a worker died after the previous round's results
                        # were drained, or a reused persistent pool went
                        # bad between builds.  Same rung as a crash seen
                        # mid-round, not an escape from the ladder.
                        if fail_fast:
                            raise WorkerCrashError(
                                f"{phase or kind} chunk {i}: "
                                f"{exc or 'pool broken at submit'}",
                                chunk=i, attempt=attempt) from exc
                        _degrade(report, "worker-crash", phase,
                                 f"pool broken at submit: "
                                 f"{exc or 'worker process died'}",
                                 chunk=i, attempt=attempt)
                        break
                still: List[int] = [i for i in pending if i not in futures]
                pool_dead = bool(still)
                for i, fut in futures.items():
                    # Re-clamp per future: these waits are sequential, so
                    # one clamp for the whole round could block up to
                    # N_pending × remaining past the job deadline.  Once
                    # the scope's budget hits zero, every later wait
                    # times out immediately and the next retry-round
                    # checkpoint raises the typed deadline error.
                    wait_timeout = clamp_timeout(cancel_scope, chunk_timeout)
                    try:
                        results[i] = fut.result(timeout=wait_timeout)
                    except concurrent.futures.TimeoutError:
                        if fail_fast:
                            raise WorkerCrashError(
                                f"{phase or kind} chunk {i}: no result "
                                f"within {wait_timeout:g}s",
                                chunk=i, attempt=attempt)
                        _degrade(report, "chunk-timeout", phase,
                                 f"no result within {wait_timeout:g}s",
                                 chunk=i, attempt=attempt)
                        still.append(i)
                        pool_dead = True  # a hung worker occupies a slot
                    except BrokenProcessPool as exc:
                        if fail_fast:
                            raise WorkerCrashError(
                                f"{phase or kind} chunk {i}: "
                                f"{exc or 'worker process died'}",
                                chunk=i, attempt=attempt)
                        _degrade(report, "worker-crash", phase,
                                 str(exc) or "worker process died",
                                 chunk=i, attempt=attempt)
                        still.append(i)
                        pool_dead = True
                    except Exception as exc:
                        if fail_fast:
                            raise BuildError(
                                f"{phase or kind} chunk {i} failed: "
                                f"{type(exc).__name__}: {exc}") from exc
                        _degrade(report, "chunk-error", phase,
                                 f"{type(exc).__name__}: {exc}",
                                 chunk=i, attempt=attempt)
                        still.append(i)
                pending = sorted(still)
                if pool_dead:
                    if persistent:
                        _retire_persistent_pool(pool)
                    else:
                        _teardown_pool(pool)
                    pool = None
    finally:
        # A persistent pool outlives the build by design; its teardown
        # happens on retirement (above), daemon drain, or the atexit
        # sweep.  Per-build pools die here no matter how we leave.
        if pool is not None and not persistent:
            _teardown_pool(pool)
            pool = None

    # Last rung: recompile the survivors serially in this process.  The
    # chunk functions are pure, so the result is bit-identical to what a
    # healthy worker would have produced.
    for i in pending:
        checkpoint(cancel_scope, f"{phase or kind} serial re-run")
        _degrade(report, "chunk-serial-rerun", phase,
                 "recompiled in parent after pool attempts exhausted",
                 chunk=i)
        with obs_trace.span(f"serial-rerun:{kind}", kind="chunk",
                            chunk=i, size=len(chunks[i])):
            results[i] = _CHUNK_FUNCS[kind](payload, chunks[i])

    # Unwrap traced worker results, grafting their spans and metrics onto
    # the parent tracer *in chunk order* (pool completion order is not
    # deterministic; this order is).
    tracer = obs_trace.current_tracer()
    ordered: List[object] = []
    for i in range(len(chunks)):
        result = results[i]
        if isinstance(result, _TracedChunk):
            tracer.adopt(result.spans, track=i + 1)
            tracer.metrics.merge(result.metrics)
            result = result.result
        ordered.append(result)
    return ordered


# --- frontend: SIL -> optimized LIR ------------------------------------------


def _round_robin(items: Sequence, workers: int) -> List[List]:
    chunks = [list(items[i::workers]) for i in range(workers)]
    return [c for c in chunks if c]


def _signature_stubs(signatures: Dict[str, object]) -> Dict[str, object]:
    """Small picklable stand-ins for the whole-program signature table.

    Worker-side IRGen consults only callee parameter/return types
    (``ret_is_float`` / ``arg_floats``), so bodies are dropped before
    shipping the table to a persistent pool, which cannot inherit it via
    fork-time copy-on-write.  Batching many modules per chunk (the
    round-robin below) amortizes what pickling remains.
    """
    from repro.sil import sil

    return {symbol: sil.SILFunction(symbol=symbol,
                                    param_types=list(fn.param_types),
                                    ret_type=fn.ret_type,
                                    is_bare=fn.is_bare,
                                    source_module=fn.source_module)
            for symbol, fn in signatures.items()}


def _ladder(config: BuildConfig) -> Dict[str, object]:
    """The :func:`run_chunks` robustness knobs a ``BuildConfig`` sets."""
    return {"plan": config.fault_plan,
            "chunk_timeout": config.chunk_timeout,
            "max_retries": config.max_chunk_retries,
            "retry_backoff": config.retry_backoff,
            "fail_fast": config.fail_fast,
            "cancel_scope": config.cancel_scope,
            "persistent": config.persistent_workers}


def lower_modules(sil_by_name: Dict[str, object],
                  signatures: Dict[str, object],
                  names: Sequence[str], config: BuildConfig,
                  report: Optional[BuildReport] = None) -> Dict[str, object]:
    """Lower ``names`` to optimized LIR; returns name -> LIRModule.

    Fans out across ``config.workers`` processes, or runs in this process
    when there are fewer than two workers or modules.
    """
    payload = {"sil_by_name": sil_by_name, "signatures": signatures}
    workers = resolve_workers(config.workers)
    if workers <= 1 or len(names) < 2:
        return dict(_lower_chunk(payload, names))
    chunks = _round_robin(list(names), workers)
    chunk_payloads = None
    if config.persistent_workers:
        stubs = _signature_stubs(signatures)
        chunk_payloads = [{"sil_by_name": {n: sil_by_name[n] for n in chunk},
                           "signatures": stubs}
                          for chunk in chunks]
    results = run_chunks("lower", payload, chunks, workers, report=report,
                         phase="lower", chunk_payloads=chunk_payloads,
                         **_ladder(config))
    return {name: module for chunk_result in results
            for name, module in chunk_result}


# --- backend: llc over partitions --------------------------------------------


def llc_modules(jobs: Sequence[Tuple[object, object]],
                config: BuildConfig,
                report: Optional[BuildReport] = None) -> List[object]:
    """Run llc on each ``(LIRModule, LLCOptions)`` job; returns the
    outputs in job order.

    Fans out across ``config.workers`` processes, or runs in this process
    when there are fewer than two workers or jobs.
    """
    payload = {"jobs": list(jobs)}
    indices = list(range(len(jobs)))
    workers = resolve_workers(config.workers)
    if workers <= 1 or len(jobs) < 2:
        return [llc_out for _, llc_out in _llc_chunk(payload, indices)]
    chunks = _round_robin(indices, workers)
    chunk_payloads = None
    if config.persistent_workers:
        # The chunk function indexes ``jobs`` by job number, so a dict
        # carrying just this chunk's jobs is a drop-in.
        chunk_payloads = [{"jobs": {i: jobs[i] for i in chunk}}
                          for chunk in chunks]
    results = run_chunks("llc", payload, chunks, workers, report=report,
                         phase="llc", chunk_payloads=chunk_payloads,
                         **_ladder(config))
    ordered: List[object] = [None] * len(jobs)
    for chunk_result in results:
        for i, llc_out in chunk_result:
            ordered[i] = llc_out
    return ordered
