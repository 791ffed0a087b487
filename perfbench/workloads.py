"""The benchmark's three workloads.

Each workload function takes a :class:`Context` and returns
``(metrics, counts)``: the metrics the run reports (end-to-end ones with
tracing off, per-layer ones with tracing on) and the counts that must
repeat exactly in every run of the same code and seed.

* ``app-min-size-cold`` — the generated app under the uncached
  ``min-size`` preset (the paper's Figure 10 pipeline).  With no cache, a
  one-function edit and an unchanged rebuild each cost a full build, and
  ``edit_s``/``noop_s`` say exactly that.
* ``app-fast-build-edit`` — the same app under ``fast-build``: a filled
  cache, then seeded one-function edits, each followed by an unchanged
  rebuild.
* ``swift-sim`` — five Table IV programs built with ``min-size``, then
  executed on the iphone-6s timing model.

Target and merge mode are always pinned, so ``REPRO_TARGET`` and
``REPRO_MERGE`` cannot change the program being measured.
"""

from __future__ import annotations

import gc
import json
import os
import random
import re
import shutil
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Tuple

import repro
from repro.link.verify import verify_image
from repro.obs import NULL_TRACER, Tracer, write_chrome_trace
from repro.pipeline import parallel, run_build
from repro.sim.timing import DEVICE_GRID, TimingModel
from repro.workloads.appgen import (AppSpec, edit_function,
                                    function_fingerprints, generate_app)
from repro.workloads.swift_benchmarks import load_benchmark

import replay
from harness import (HOST, STATE_DIR, Tally, Window, check_across_runs,
                     geomean, median, peak_rss_mb, replay_pair, timed)

TARGET = "arm64"
#: Figure 13's smallest device row.
DEVICE = DEVICE_GRID[0]
#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPS = 3
#: Cold / edit / no-op build samples of the Swift programs per run.
PROGRAM_BUILD_ROUNDS = 8
MAX_STEPS = 20_000_000
PROGRAMS = ("JSON", "RedBlackTree", "StrassenMM", "QuickSort", "LRUCache")
#: The app corpus (24 modules).  It is the same for every seed, so its
#: sizes and cycles repeat exactly and regress only when the compiler
#: changes; the seed picks the edits.
APP_SPEC = AppSpec(base_features=16, num_vendors=6, base_handlers=5)
#: Unchanged rebuilds after each ``fast-build`` edit.
NOOPS_PER_EDIT = 2
#: ``fast-build`` loop iterations per cold uncached build.
EDITS_PER_COLD_BUILD = 1
#: The ``fast-build`` loop runs the app on the timing model once per this
#: many iterations: a run costs about as much as three edits, and the edits
#: need the samples more.
APP_RUN_EVERY = 2

_HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(_HERE, "expected_outputs.json"),
          encoding="utf-8") as _fh:
    #: Outputs pinned for these programs by the integration tests.
    EXPECTED_OUTPUTS: Dict[str, List[str]] = json.load(_fh)


class SetupError(Exception):
    """Set-up failed; the run cannot measure anything."""


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    root: str
    import_s: float
    tally: Tally

    def must(self, what: str, fn, *args):
        result = self.tally.op(what, fn, *args)
        if result is None:
            raise SetupError(what)
        return result

    def state_path(self, name: str) -> str:
        folder = os.path.join(self.root, STATE_DIR)
        os.makedirs(folder, exist_ok=True)
        return os.path.join(folder, name)


# -- builds and runs ---------------------------------------------------------


def min_size(sources):
    return repro.build(sources, preset="min-size", target=TARGET,
                       merge_mode="optimistic", workers=1)


def opts_off(sources):
    """Every optimisation the configuration can turn off, off."""
    return repro.build(sources, target=TARGET, pipeline="wholeprogram",
                       outline_rounds=0, merge_mode="off",
                       enable_arc_opt=False, global_dce=False, strip="off",
                       workers=1)


def fast_build(sources, cache_dir=None):
    """``fast-build`` with at most two workers; uncached without a dir."""
    return repro.build(sources, preset="fast-build", target=TARGET,
                       merge_mode="off",
                       workers=min(2, os.cpu_count() or 1),
                       incremental=cache_dir is not None,
                       cache_dir=cache_dir)


@dataclass(frozen=True)
class Run:
    """What one timing-model run produced.

    Only this summary is kept, not the execution with its heap and cache
    models: state the benchmark holds would slow the garbage collections
    of the builds it times next.
    """

    output: Tuple[str, ...]
    leaked: Tuple[int, ...]
    steps: int
    outlined_steps: int
    cycles: int
    icache_misses: int


def simulate(result) -> Run:
    r = run_build(result, timing=TimingModel(DEVICE), max_steps=MAX_STEPS)
    return Run(tuple(r.output), tuple(r.leaked), r.steps, r.outlined_steps,
               r.cycles, r.timing.icache.misses)


def traced_simulate(tracer, name: str, result) -> Run:
    with tracer.span("sim.run", program=name):
        return simulate(result)


def image_bytes(result) -> Tuple[bytes, bytes]:
    """The linked image's ``__text`` and ``__data`` serializations; a loop
    keeps these rather than the build, for the same reason as :class:`Run`.
    Accepts a build result or a bare image."""
    image = getattr(result, "image", result)
    return image.text_section(), image.data_section()


def replay_checked(ctx: Context, tracer, what: str,
                   expected: Tuple[bytes, bytes], fn, *args):
    """A traced + untraced replay pair whose images must both equal
    *expected*, the real build's (the replay guard).

    Returns ``(layer seconds, counts, traced minus untraced wall)``, or
    None when the replay raised.
    """
    pair = ctx.tally.op(what, replay_pair, tracer, NULL_TRACER, fn, *args)
    if pair is None:
        return None
    (image, counts), (plain, plain_counts), wall, plain_wall, spans = pair
    ctx.tally.check(f"{what} guard",
                    image_bytes(image) == expected == image_bytes(plain),
                    "the replayed image differs from the build's")
    ctx.tally.check(f"{what} count determinism", counts == plain_counts)
    return spans, counts, wall - plain_wall


def timed_op(ctx: Context, what: str, fn, *args) -> Tuple[object, float]:
    """A counted, timed operation: ``(result or None, wall seconds)``."""
    box = ctx.tally.op(what, lambda: timed(fn, *args))
    return box if box is not None else (None, 0.0)


# -- seeded edits ------------------------------------------------------------


class AppEdits:
    """Seeded one-function edits of the app corpus, applied cumulatively.

    ``Base`` is never edited: it defines the ``log(code:)`` function that
    :func:`edit_function` inserts a call to.
    """

    def __init__(self, sources: Dict[str, str], seed: int):
        fingerprints = function_fingerprints(APP_SPEC)
        self.sites = [(module, fn) for module in sorted(fingerprints)
                      if module != "Base"
                      for fn in sorted(fingerprints[module])]
        self.rng = random.Random(seed)
        self.sources = dict(sources)
        self.marker = 0

    def next(self) -> Tuple[Dict[str, str], str]:
        module, fn = self.rng.choice(self.sites)
        self.marker += 1
        self.sources = dict(self.sources)
        self.sources[module] = edit_function(self.sources[module], fn,
                                             marker=self.marker)
        return self.sources, module


_TOP_LEVEL_FUNC = re.compile(r"^func (\w+)\(", re.MULTILINE)


def edit_program(source: str, fn: str, marker: int) -> str:
    """Add a local variable at the top of one top-level function."""
    match = next(m for m in _TOP_LEVEL_FUNC.finditer(source)
                 if m.group(1) == fn)
    line_end = source.index("\n", match.start())
    return (source[:line_end] + f"\n    var perfbenchEdit{marker} = {marker}"
            + source[line_end:])


# -- reporting helpers ---------------------------------------------------------


def one_pass(runs: Dict[str, List[Tuple[Run, float]]]
             ) -> List[Tuple[Run, float]]:
    """One ``(execution, median wall)`` per program: a pass over all
    programs at typical speed."""
    return [(samples[0][0], median(w for _, w in samples))
            for samples in runs.values() if samples]


def sim_layers(runs: List[Tuple[Run, float]]) -> Dict[str, float]:
    """Simulator per-layer numbers over one pass (see :func:`one_pass`)."""
    steps = sum(r.steps for r, _ in runs)
    return {
        "sim.run_s": sum(w for _, w in runs),
        "sim.instrs": steps,
        "sim.outlined_share": (sum(r.outlined_steps for r, _ in runs)
                               / steps if steps else 0.0),
        "sim.icache_misses": sum(r.icache_misses for r, _ in runs),
    }


def compiler_layers(layers: List[Dict[str, float]],
                    counts: Dict[str, int]) -> Dict[str, float]:
    """Per-layer compiler numbers: median span seconds over replays."""
    names = ("frontend.lex", "frontend.parse", "frontend.sema",
             "sil.silgen", "lir.lower", "lir.wpopt", "lir.optmerge",
             "backend.isel", "backend.regalloc", "backend.frame",
             "outliner.rounds", "link.strip", "link.link", "link.verify")
    out = {f"{name}_s": median(sample.get(name, 0.0) for sample in layers)
           for name in names}
    lex_parse = out["frontend.lex_s"] + out["frontend.parse_s"]
    backend = (out["backend.isel_s"] + out["backend.regalloc_s"]
               + out["backend.frame_s"])
    candidates = counts["outliner.candidates_considered"]
    out.update({
        "frontend.tokens_per_s": (counts["frontend.tokens"] / lex_parse
                                  if lex_parse else 0.0),
        "backend.functions_per_s": (counts["backend.functions"] / backend
                                    if backend else 0.0),
        "backend.spill_slots": counts["backend.spill_slots"],
        "outliner.candidates_considered": candidates,
        "outliner.sequences_outlined": counts["outliner.sequences_outlined"],
        "outliner.accept_ratio": (counts["outliner.functions_created"]
                                  / candidates if candidates else 0.0),
        "outliner.bytes_saved": counts["outliner.bytes_saved"],
        "link.strip.functions_removed":
            counts["link.strip.functions_removed"],
    })
    for key in ("groups_considered", "functions_merged", "bytes_saved"):
        out[f"lir.optmerge.{key}"] = counts[f"lir.optmerge.{key}"]
    return out


def pipeline_layers(reports, residual_s: float,
                    noop_residual_s: float) -> Dict[str, float]:
    return {
        "pipeline.residual_s": residual_s,
        "pipeline.noop_residual_s": noop_residual_s,
        "pipeline.functions_recompiled":
            sum(r.functions_recompiled for r in reports),
        "pipeline.llc_cache_misses": sum(r.llc_cache_misses for r in reports),
        "pipeline.fn_cache_hits": sum(r.fn_cache_hits for r in reports),
        "pipeline.image_cache_hit": sum(int(r.image_cache_hit)
                                        for r in reports),
    }


def program_layers(runs: Dict[str, List[Tuple[Run, float]]]
                   ) -> Dict[str, float]:
    """``sim.<Program>.cycles`` / ``.instrs_per_s`` (zero when not run)."""
    out: Dict[str, float] = {}
    for name in PROGRAMS:
        samples = runs.get(name, [])
        wall = median(w for _, w in samples)
        out[f"sim.{name}.cycles"] = samples[0][0].cycles if samples else 0
        out[f"sim.{name}.instrs_per_s"] = (samples[0][0].steps / wall
                                           if samples else 0.0)
    return out


def layer_counts(metrics: Dict[str, float]) -> Dict[str, object]:
    """The per-layer values that are counts (must repeat exactly)."""
    return {name: value for name, value in metrics.items()
            if isinstance(value, int)}


def finish_traced(ctx: Context, tracer: Tracer, metrics: Dict[str, float],
                  overhead: List[float], counts: Dict[str, object]):
    """Add the tracing overhead, write the trace and the per-layer numbers
    under ``.perfbench/``, and return ``(metrics, counts)``."""
    metrics["trace.overhead_s"] = median(overhead)
    stem = f"{ctx.workload}-seed{ctx.seed}"
    write_chrome_trace(tracer, ctx.state_path(f"trace-{stem}.json"))
    with open(ctx.state_path(f"layers-{stem}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(metrics, fh, indent=1, sort_keys=True)
        fh.write("\n")
    counts.update(layer_counts(metrics))
    return metrics, counts


def run_app(ctx: Context, result, runs: List[Tuple[Run, float]],
            what: str) -> None:
    """Run the app once on the timing model and append ``(execution,
    wall)`` to *runs*.  The loops interleave these runs with their builds,
    so the simulator is sampled across the whole window.  Every run must
    match the first and leak nothing."""
    r, wall = timed_op(ctx, f"{what} run", simulate, result)
    if r is None:
        return
    runs.append((r, wall))
    first = runs[0][0]
    ctx.tally.check(f"{what} leaks", not r.leaked, f"{r.leaked}")
    ctx.tally.check(f"{what} repeat", (r.output, r.cycles, r.steps)
                    == (first.output, first.cycles, first.steps),
                    "two runs of one image differ")


def setup_reps(ctx: Context, setup) -> Tuple[Run, float]:
    """Run ``setup`` :data:`SETUP_REPS` times; images must all agree.

    Returns the last repetition's state and the set-up time: import time
    plus the median repetition.  Earlier repetitions are dropped and what
    remains is frozen out of the collector, so the state the benchmark
    holds does not slow the collections of the builds it measures.
    """
    state, walls = None, []
    for _ in range(SETUP_REPS):
        previous = state
        state, wall = ctx.must("set-up", lambda: timed(setup))
        walls.append(wall)
        if previous is not None:
            ctx.tally.check("set-up determinism",
                            list(map(image_bytes, _results(previous)))
                            == list(map(image_bytes, _results(state))),
                            "set-up builds of one input differ")
    del previous
    gc.collect()
    gc.freeze()
    # Import ran before the first host-speed sample; set-up's samples
    # scale it.
    return state, ctx.import_s * HOST.mean_scale() + median(walls)


def _results(state) -> list:
    return list(state["results"].values())


def end_to_end(*, setup_s: float, build: List[float],
               edit: List[float], noop: List[float],
               sim_pass: List[Tuple[Run, float]], cycles: float,
               text: int, binary: int) -> Dict[str, float]:
    """The end-to-end metrics every workload reports.

    ``sim_pass`` is one run of each simulated program with its median wall
    (see :func:`one_pass`).
    """
    return {
        "build_s": median(build),
        "edit_s": median(edit),
        "noop_s": median(noop),
        "sim_instrs_per_s": (sum(r.steps for r, _ in sim_pass)
                             / sum(w for _, w in sim_pass)),
        "run_cycles": cycles,
        "text_bytes": text,
        "binary_bytes": binary,
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": setup_s,
    }


# -- app-min-size-cold ---------------------------------------------------------


def app_min_size_cold(ctx: Context):
    def setup():
        sources = generate_app(APP_SPEC)
        return {"sources": sources, "results": {"app": min_size(sources)}}

    state, setup_s = setup_reps(ctx, setup)
    sources, base = state["sources"], state["results"]["app"]
    counts = {"text_bytes": base.sizes.text_bytes,
              "binary_bytes": base.sizes.binary_bytes}
    base_bytes = image_bytes(base)
    runs: List[Tuple[Run, float]] = []
    window = Window(ctx.seconds)
    if ctx.trace:
        tracer = Tracer()
        items = list(sources.items())
        builds, layers, overhead, replay_counts = [], [], [], []
        while window.more(len(layers), 2):
            built, wall = timed_op(ctx, "min-size build", min_size, sources)
            if built is not None:
                builds.append(wall)
                ctx.tally.check("min-size rebuild determinism",
                                image_bytes(built) == base_bytes)
            built = None
            replayed = replay_checked(ctx, tracer, "min-size replay",
                                      base_bytes, replay.min_size, items,
                                      TARGET)
            if replayed is None:
                continue
            layers.append(replayed[0])
            replay_counts.append(replayed[1])
            overhead.append(replayed[2])
            run_app(ctx, base, runs, "min-size app")
        ctx.tally.check("replay count determinism",
                        all(n == replay_counts[0] for n in replay_counts))
    else:
        edits = AppEdits(sources, ctx.seed)
        edit_w, noop_w = [], []
        while window.more(len(noop_w), 2):
            edited, _ = edits.next()
            first, wall = timed_op(ctx, "min-size edit build", min_size,
                                   edited)
            first = first and image_bytes(first)
            again, again_wall = timed_op(ctx, "min-size no-op build",
                                         min_size, edited)
            again = again and image_bytes(again)
            if first is not None and again is not None:
                edit_w.append(wall)
                noop_w.append(again_wall)
                ctx.tally.check("min-size rebuild determinism",
                                first == again)
            first = again = None
            run_app(ctx, base, runs, "min-size app")
    off = ctx.tally.op("all-off build", opts_off, sources)
    if off is not None:
        ran = ctx.tally.op("all-off run", run_build, off, None, None,
                           MAX_STEPS)
        if ran is not None and runs:
            ctx.tally.check("output equals all-off build",
                            tuple(ran.output) == runs[0][0].output,
                            f"{runs[0][0].output} != {ran.output}")
            ctx.tally.check("all-off leaks", ran.leaked == [])
    if runs:
        counts["run_cycles"] = runs[0][0].cycles
    if not ctx.trace:
        return end_to_end(setup_s=setup_s, build=edit_w + noop_w,
                          edit=edit_w, noop=noop_w,
                          sim_pass=one_pass({"app": runs}),
                          cycles=counts["run_cycles"],
                          text=base.sizes.text_bytes,
                          binary=base.sizes.binary_bytes), counts
    metrics = compiler_layers(layers, replay_counts[0])
    span_sum = median(sum(sample.values()) for sample in layers)
    metrics.update(pipeline_layers([base.report], median(builds) - span_sum,
                                   median(builds) - span_sum))
    metrics.update(sim_layers(one_pass({"app": runs})))
    metrics.update(program_layers({}))
    return finish_traced(ctx, tracer, metrics, overhead, counts)


# -- app-fast-build-edit -------------------------------------------------------


def app_fast_build_edit(ctx: Context):
    scratch = tempfile.mkdtemp(prefix="caches-", dir=ctx.state_path(""))
    try:
        return _fast_build_edit(ctx, scratch)
    finally:
        parallel.shutdown_persistent_pool()
        shutil.rmtree(scratch, ignore_errors=True)


def _fast_build_edit(ctx: Context, scratch: str):
    def setup():
        # Every repetition fills a fresh cache, then warms the edit path
        # with the first seeded edit; the loop continues from the last.
        cache_dir = tempfile.mkdtemp(dir=scratch)
        sources = generate_app(APP_SPEC)
        base = fast_build(sources, cache_dir)
        edits = AppEdits(sources, ctx.seed)
        edited, _ = edits.next()
        for _ in range(2):
            fast_build(edited, cache_dir)
        return {"cache_dir": cache_dir, "edits": edits,
                "results": {"app": base}}

    state, setup_s = setup_reps(ctx, setup)
    base, edits = state["results"]["app"], state["edits"]
    cache_dir = state["cache_dir"]
    counts = {"text_bytes": base.sizes.text_bytes,
              "binary_bytes": base.sizes.binary_bytes}
    tracer = Tracer()
    edit_w, noop_w, layers, overhead = [], [], [], []
    residual, noop_residual, reports, replay_counts = [], [], [], []
    cold_w: List[float] = []
    runs: List[Tuple[Run, float]] = []
    window = Window(ctx.seconds)
    iteration = 0
    while window.more(len(cold_w), 2):
        iteration += 1
        if (iteration - 1) % APP_RUN_EVERY == 0:
            run_app(ctx, base, runs, "fast-build app")
        edited, module = edits.next()
        built, wall = timed_op(ctx, "fast-build edit", fast_build, edited,
                               cache_dir)
        if built is None:
            continue
        built_bytes = image_bytes(built)
        report = built.report
        ctx.tally.check("one function recompiled per edit",
                        report.functions_recompiled == 1
                        and not report.image_cache_hit,
                        f"{report.functions_recompiled} recompiled")
        edit_w.append(wall)
        reports.append(report)
        if ctx.trace:
            replayed = replay_checked(
                ctx, tracer, "edit replay", built_bytes,
                replay.fast_build_edit, list(edited.items()), module,
                built.machine_modules, TARGET)
            if replayed is not None:
                layers.append(replayed[0])
                replay_counts.append(replayed[1])
                overhead.append(replayed[2])
                residual.append(wall - sum(replayed[0].values()))
        built = None
        for _ in range(NOOPS_PER_EDIT):
            again, again_wall = timed_op(ctx, "fast-build no-op", fast_build,
                                         edited, cache_dir)
            if again is None:
                continue
            noop_w.append(again_wall)
            ctx.tally.check("no-op is an image cache hit",
                            again.report.image_cache_hit
                            and again.report.functions_recompiled == 0)
            ctx.tally.check("no-op image equals edit image",
                            image_bytes(again) == built_bytes)
            if ctx.trace:
                with tracer.span("noop-replay") as root:
                    with tracer.span("link.verify"):
                        verify_image(again.image, target=TARGET)
                # At the host speed of the no-op just timed.
                noop_residual.append(again_wall - HOST.scale
                                     * root.children[0].duration)
            again = None
        if len(edit_w) % EDITS_PER_COLD_BUILD == 0:
            cold, wall = timed_op(ctx, "fast-build cold uncached build",
                                  fast_build, edited)
            if cold is not None:
                cold_w.append(wall)
                ctx.tally.check("warm image equals cold uncached build",
                                image_bytes(cold) == built_bytes)
            cold = None
    if runs:
        counts["run_cycles"] = runs[0][0].cycles
    if not ctx.trace:
        return end_to_end(setup_s=setup_s, build=cold_w, edit=edit_w,
                          noop=noop_w, sim_pass=one_pass({"app": runs}),
                          cycles=counts["run_cycles"],
                          text=base.sizes.text_bytes,
                          binary=base.sizes.binary_bytes), counts
    # Counts of the first edit only: how many edits fit in the window
    # depends on the host, the first edit depends only on the seed.
    metrics = compiler_layers(layers, replay_counts[0])
    metrics.update(pipeline_layers(reports[:1], median(residual),
                                   median(noop_residual)))
    metrics.update(sim_layers(one_pass({"app": runs})))
    metrics.update(program_layers({}))
    return finish_traced(ctx, tracer, metrics, overhead, counts)


# -- swift-sim ---------------------------------------------------------------


def swift_sim(ctx: Context):
    def setup():
        sources = {name: load_benchmark(name) for name in PROGRAMS}
        return {"sources": sources,
                "results": {name: min_size({name: text})
                            for name, text in sources.items()}}

    state, setup_s = setup_reps(ctx, setup)
    sources, results = state["sources"], state["results"]
    expected = {name: image_bytes(r) for name, r in results.items()}
    counts = {"text_bytes": sum(r.sizes.text_bytes for r in results.values()),
              "binary_bytes": sum(r.sizes.binary_bytes
                                  for r in results.values())}
    tracer = Tracer()
    build_w, edit_w, noop_w, layers, residual, replay_n = [], [], [], [], [], []
    rng = random.Random(ctx.seed)
    edited = dict(sources)

    def build_round(round_no: int) -> None:
        """One cold build of every program, then (untraced) a one-function
        edit + rebuild and an unchanged rebuild of each, or (traced) a
        replay pair of each cold build."""
        cold = edit = noop = 0.0
        spans_round: Dict[str, float] = {}
        n_round: Dict[str, int] = {}
        for name in PROGRAMS:
            built, wall = timed_op(ctx, f"{name} build", min_size,
                                   {name: sources[name]})
            cold += wall
            if built is not None:
                ctx.tally.check(f"{name} rebuild determinism",
                                image_bytes(built) == expected[name])
            built = None
            if ctx.trace:
                replayed = replay_checked(ctx, tracer, f"{name} replay",
                                          expected[name], replay.min_size,
                                          [(name, sources[name])], TARGET)
                if replayed is None:
                    continue
                spans, n, _ = replayed
                for key, value in spans.items():
                    spans_round[key] = spans_round.get(key, 0.0) + value
                for key, value in n.items():
                    n_round[key] = n_round.get(key, 0) + value
                continue
            fns = [m.group(1) for m in _TOP_LEVEL_FUNC.finditer(edited[name])]
            edited[name] = edit_program(edited[name], rng.choice(fns),
                                        round_no)
            first, wall = timed_op(ctx, f"{name} edit build", min_size,
                                   {name: edited[name]})
            first = first and image_bytes(first)
            edit += wall
            again, wall = timed_op(ctx, f"{name} no-op build", min_size,
                                   {name: edited[name]})
            again = again and image_bytes(again)
            noop += wall
            if first is not None and again is not None:
                ctx.tally.check(f"{name} rebuild determinism",
                                first == again)
        build_w.append(cold)
        edit_w.append(edit)
        noop_w.append(noop)
        if ctx.trace:
            layers.append(spans_round)
            residual.append(cold - sum(spans_round.values()))
            replay_n.append(n_round)

    runs: Dict[str, List[Tuple[Run, float]]] = {}
    traced_runs: Dict[str, List[Tuple[Run, float]]] = {}
    overhead: List[float] = []
    reference: Dict[str, Run] = {}
    turn = 0
    window = Window(ctx.seconds)
    while (window.more(len(runs), len(PROGRAMS))
           or len(build_w) < PROGRAM_BUILD_ROUNDS):
        # One build round before each of the first turns, so that builds
        # and simulator runs both sample most of the window.
        if len(build_w) < PROGRAM_BUILD_ROUNDS:
            build_round(len(build_w) + 1)
        name = PROGRAMS[turn % len(PROGRAMS)]
        # A traced run pairs with an untraced run of the same program; the
        # order alternates so neither side always goes first.
        modes = (True, False) if ctx.trace else (False,)
        modes = modes[::-1] if turn % 2 else modes
        turn += 1
        walls = {}
        for traced in modes:
            call = (traced_simulate, tracer, name) if traced else (simulate,)
            r, wall = timed_op(ctx, f"{name} run", *call, results[name])
            if r is None:
                continue
            (traced_runs if traced else runs).setdefault(name, []).append(
                (r, wall))
            walls[traced] = wall
            first = reference.setdefault(name, r)
            ctx.tally.check(f"{name} output",
                            list(r.output) == EXPECTED_OUTPUTS[name],
                            f"{r.output} != {EXPECTED_OUTPUTS[name]}")
            ctx.tally.check(f"{name} leaks", not r.leaked, f"{r.leaked}")
            ctx.tally.check(f"{name} cycle determinism",
                            (r.cycles, r.steps) == (first.cycles,
                                                    first.steps))
        if len(walls) == 2:
            overhead.append(walls[True] - walls[False])
    counts["run_cycles"] = [reference[name].cycles for name in PROGRAMS
                            if name in reference]
    if not ctx.trace:
        return end_to_end(setup_s=setup_s, build=build_w, edit=edit_w,
                          noop=noop_w, sim_pass=one_pass(runs),
                          cycles=geomean(counts["run_cycles"]),
                          text=counts["text_bytes"],
                          binary=counts["binary_bytes"]), counts
    ctx.tally.check("replay count determinism",
                    all(n == replay_n[0] for n in replay_n))
    metrics = compiler_layers(layers, replay_n[0])
    metrics.update(pipeline_layers([r.report for r in results.values()],
                                   median(residual), median(residual)))
    metrics.update(sim_layers(one_pass(traced_runs)))
    metrics.update(program_layers(traced_runs))
    return finish_traced(ctx, tracer, metrics, overhead, counts)


WORKLOADS = {
    "app-min-size-cold": app_min_size_cold,
    "app-fast-build-edit": app_fast_build_edit,
    "swift-sim": swift_sim,
}
