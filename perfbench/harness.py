"""Measurement plumbing shared by the workloads: timing, failure tally,
span totals, memory, and the cross-run determinism record."""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
from typing import Callable, Dict, Iterable, Tuple

#: Where runs keep their scratch caches, traces and determinism records,
#: relative to the checkout root (git-ignored).
STATE_DIR = ".perfbench"


#: Mean wall seconds of one :func:`reference_loop` on a 2-vCPU x86-64 VM
#: (CPython 3.11).  Timings are reported at this host speed; see
#: :class:`HostSpeed`.
REFERENCE_S = 0.0005
#: While a timed call runs, the host's speed is sampled this often.
SAMPLE_INTERVAL_S = 0.025
#: Samples taken right before and right after every timed call.
EDGE_SAMPLES = 2


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value, next):
        self.key, self.value, self.next = key, value, next


def reference_loop() -> int:
    """A fixed piece of interpreter work that runs no program code.

    It does what the compiler and the simulator do most: allocates small
    objects, formats strings, probes dicts, chases pointers and sorts.
    """
    table: Dict[str, int] = {}
    head = None
    names = []
    for i in range(400):
        key = f"v{i & 127}"
        head = _Node(key, i, head)
        table[key] = table.get(key, 0) + (i * 7 & 255)
        if i % 5 == 0:
            names.append((key, i % 97))
    names.sort(key=lambda item: (item[1], item[0]))
    total = 0
    while head is not None:
        total += table[head.key] & head.value
        head = head.next
    return total + len(names)


class HostSpeed:
    """How fast the host runs Python, against :data:`REFERENCE_S`.

    A shared host's speed swings by up to 2x between phases that last from
    under a second to minutes, and it moves the medians of whole runs by
    more than any bound could allow.  So :meth:`run` times
    :func:`reference_loop` while the call runs, from a ``SIGALRM`` handler
    every :data:`SAMPLE_INTERVAL_S`, and right before and after it; it
    reports the call's own wall time (the samples taken inside it
    subtracted) scaled by :data:`REFERENCE_S` over the mean sample.  Every
    timing the benchmark reports is thus in seconds at the reference
    speed.  The mean, not the median: the samples are bimodal (fast and
    slow phases), and the call pays the average slowness of the phases it
    spans.  The loop runs no program code, so a program that gets slower
    still reads slower; and it runs with the collector off, so the heap
    the benchmark or the program leaves behind does not change it.
    """

    def __init__(self) -> None:
        #: Every sample of this run, in seconds.
        self.samples: list = []
        self._taken: list = []
        #: The scale of the last call, and the share of its wall time that
        #: was its own (not sampling).
        self.scale = 1.0
        self.own_share = 1.0

    def _sample(self, *_signal) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference_loop()
            self._taken.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()

    def run(self, fn: Callable, *args, **kwargs) -> Tuple[object, float]:
        """Run ``fn``; return (result, its own seconds at reference
        speed)."""
        if not self.samples:
            # The first runs of the loop are slow (cold code and caches),
            # which says nothing about the host.
            for _ in range(50):
                reference_loop()
        self._taken = []
        for _ in range(EDGE_SAMPLES):
            self._sample()
        edge = len(self._taken)
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            wall = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        own = wall - sum(self._taken[edge:])
        for _ in range(EDGE_SAMPLES):
            self._sample()
        self.samples.extend(self._taken)
        self.scale = REFERENCE_S / statistics.fmean(self._taken)
        self.own_share = own / wall if wall > 0 else 1.0
        return result, own * self.scale

    def mean_scale(self) -> float:
        """The scale over every sample so far."""
        if not self.samples:
            return 1.0
        return REFERENCE_S / statistics.fmean(self.samples)


HOST = HostSpeed()


def timed(fn: Callable, *args, **kwargs) -> Tuple[object, float]:
    """Run ``fn`` after a full collection; return (result, seconds at the
    reference host speed, see :class:`HostSpeed`).

    Collecting first starts every timed call from the same heap state, so a
    collection triggered by the previous call's garbage is not billed to
    this one.
    """
    gc.collect()
    return HOST.run(fn, *args, **kwargs)


class Window:
    """The measurement window of one run.

    :meth:`more` keeps a loop going while one more iteration, taking as
    long as the last one, still fits in the window, or while the loop has
    fewer than ``at_least`` samples.
    """

    def __init__(self, seconds: float):
        self.last = time.perf_counter()
        self.end = self.last + seconds

    def more(self, done: int, at_least: int) -> bool:
        now = time.perf_counter()
        step, self.last = now - self.last, now
        return done < at_least or now + step <= self.end


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def span_totals(root) -> Dict[str, float]:
    """Seconds per span name below ``root`` (the root itself excluded)."""
    totals: Dict[str, float] = {}
    for span in root.walk():
        if span is not root:
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
    return totals


class Tally:
    """Operations attempted and failed; every failure is printed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def op(self, what: str, fn: Callable, *args, **kwargs):
        """Run one counted operation; a raised error is a failure and
        returns None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - every op error is a failure
            self.fail(what, f"{type(exc).__name__}: {exc}")
            return None

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        """Count a failed check against the operation that produced it."""
        if not ok:
            self.fail(what, detail or "check failed")
        return ok

    def fail(self, what: str, detail: str) -> None:
        self.failed += 1
        print(f"perfbench: FAILED {what}: {detail}", file=sys.stderr)


def code_digest(root: str) -> str:
    """Digest of the program and benchmark sources in the checkout."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith((".py", ".sw", ".json")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, root).encode("utf-8"))
                    with open(path, "rb") as fh:
                        h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def check_across_runs(tally: Tally, root: str, key: str,
                      counts: Dict[str, object]) -> None:
    """Counts must repeat exactly in every run of the same code and seed.

    The first run records them under ``STATE_DIR``; later runs compare.
    """
    folder = os.path.join(root, STATE_DIR, "determinism")
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, f"{key}-{code_digest(root)}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            previous = json.load(fh)
        changed = sorted(k for k in counts if previous.get(k) != counts[k])
        tally.check("determinism across runs", not changed,
                    ", ".join(f"{k}: {previous.get(k)} -> {counts[k]}"
                              for k in changed))
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(counts, fh, sort_keys=True)
    os.replace(tmp, path)


def replay_pair(tracer, null_tracer, fn: Callable, *args
                ) -> Tuple[object, object, float, float, Dict[str, float]]:
    """Run one replay twice in a row, traced and untraced.

    Which goes first alternates from call to call, so neither side always
    pays for warming up.  Returns ``(traced result, untraced result,
    traced wall, untraced wall, layer seconds of the traced run)``, all
    seconds at the reference host speed.
    """
    def traced():
        with tracer.span("replay") as root:
            return fn(tracer, *args), root

    if sum(root.name == "replay" for root in tracer.roots) % 2:
        plain, plain_wall = timed(fn, null_tracer, *args)
        (result, root), wall = timed(traced)
        scale = HOST.scale * HOST.own_share
    else:
        (result, root), wall = timed(traced)
        scale = HOST.scale * HOST.own_share
        plain, plain_wall = timed(fn, null_tracer, *args)
    spans = {name: seconds * scale
             for name, seconds in span_totals(root).items()}
    return result, plain, wall, plain_wall, spans

