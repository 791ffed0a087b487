"""Stage-by-stage replays of a build through the toolchain's public calls.

The benchmark measures every layer from outside: instead of reading the
pipeline's own spans, it re-executes a build one public call at a time and
wraps each call in a span of its own.  The span names are the per-layer
metric names without their ``_s`` suffix (``frontend.lex``,
``backend.isel``, ...), so summing a replay's spans by name gives that
replay's layer timings directly.

``tracer`` is a :class:`repro.obs.Tracer` held by the caller (never made
ambient with ``use_tracer``, so the program's own spans are not recorded)
or ``repro.obs.NULL_TRACER``, whose spans cost nothing; the benchmark runs
the same replay both ways to measure what tracing adds.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.backend.frame import lower_frame
from repro.backend.isel import select_function
from repro.backend.llc import lower_globals
from repro.backend.regalloc import allocate_function
from repro.frontend.lexer import tokenize
from repro.frontend.parser import Parser
from repro.frontend.sema import analyze_program
from repro.isa.instructions import MachineModule
from repro.lir.irgen import ModuleIRGen
from repro.lir.linker import LinkOptions, link_modules
from repro.lir.passes import constprop, dce, optmerge, phielim, simplifycfg
from repro.lir.passes.globaldce import strip_program
from repro.link.linker import link_binary
from repro.link.verify import verify_image
from repro.outliner.repeated import repeated_outline
from repro.pipeline.build import optimize_module
from repro.sil.passes import arc_opt
from repro.sil.silgen import generate_sil
from repro.target import get_target

#: Counts every replay reports (zero where the replay bypasses the layer).
COUNT_KEYS = (
    "frontend.tokens", "backend.functions", "backend.spill_slots",
    "lir.optmerge.groups_considered", "lir.optmerge.functions_merged",
    "lir.optmerge.bytes_saved", "outliner.candidates_considered",
    "outliner.functions_created", "outliner.sequences_outlined",
    "outliner.bytes_saved", "link.strip.functions_removed",
)


def _frontend(tracer, items: Sequence[Tuple[str, str]], counts: Dict):
    """Lex + parse every module, sema, SILGen + ARC optimisation."""
    modules = []
    for name, text in items:
        filename = f"{name}.sw"
        with tracer.span("frontend.lex", module=name):
            tokens = tokenize(text, filename)
        counts["frontend.tokens"] += len(tokens)
        with tracer.span("frontend.parse", module=name):
            modules.append(Parser(tokens, name, filename).parse_module())
    with tracer.span("frontend.sema"):
        program = analyze_program(modules)
    with tracer.span("sil.silgen"):
        sil_modules = generate_sil(program)
        for sm in sil_modules:
            arc_opt.run_on_module(sm)
    signatures = {fn.symbol: fn for sm in sil_modules for fn in sm.functions}
    return sil_modules, signatures


def _lower(tracer, sm, signatures):
    with tracer.span("lir.lower", module=sm.name):
        module = ModuleIRGen(sm, signatures).run()
        optimize_module(module)
    return module


def _llc(tracer, module, rounds: int, prefix: str, spec,
         counts: Dict) -> MachineModule:
    """What :func:`repro.backend.llc.run_llc` does, one call at a time."""
    machine = MachineModule(name=module.name)
    for fn in module.functions:
        with tracer.span("backend.isel"):
            phielim.run_on_function(fn)
            mf = select_function(fn, spec)
        with tracer.span("backend.regalloc"):
            alloc = allocate_function(mf, spec)
        with tracer.span("backend.frame"):
            lower_frame(mf, alloc, spec)
        machine.functions.append(mf)
        counts["backend.spill_slots"] += alloc.num_spill_slots
    counts["backend.functions"] += len(module.functions)
    machine.globals = lower_globals(module)
    with tracer.span("outliner.rounds", rounds=rounds):
        stats = repeated_outline(machine, rounds=rounds, collect_stats=True,
                                 name_prefix=prefix, target=spec)
    for cumulative in stats:
        detail = cumulative.round_detail
        counts["outliner.candidates_considered"] += \
            detail.candidates_considered
        counts["outliner.functions_created"] += detail.functions_created
        counts["outliner.sequences_outlined"] += detail.sequences_outlined
        counts["outliner.bytes_saved"] += detail.bytes_saved
    return machine


def min_size(tracer, items: Sequence[Tuple[str, str]], target: str):
    """Replay ``repro.build(preset="min-size")`` with ``workers=1``.

    Returns ``(image, counts)``; the caller checks the image against the
    real build's (the replay guard).
    """
    spec = get_target(target)
    counts = dict.fromkeys(COUNT_KEYS, 0)
    sil_modules, signatures = _frontend(tracer, items, counts)
    lir_modules = [_lower(tracer, sm, signatures) for sm in sil_modules]
    entry = None
    for module in lir_modules:
        if module.entry_symbol:
            entry = module.entry_symbol
    with tracer.span("lir.wpopt"):
        merged = link_modules(lir_modules, LinkOptions(
            gc_metadata_mode="attributes", data_layout="module-order"))
        for run_on_module in (constprop.run_on_module, dce.run_on_module,
                              simplifycfg.run_on_module):
            run_on_module(merged)
    with tracer.span("lir.optmerge"):
        merge = optmerge.run_on_module(merged, target=target,
                                       symbol_prefix="")
    for key in ("groups_considered", "functions_merged", "bytes_saved"):
        counts[f"lir.optmerge.{key}"] += merge[key]
    machine = _llc(tracer, merged, 5, "", spec, counts)
    with tracer.span("link.strip"):
        stripped = strip_program([machine], entry, spec)
    counts["link.strip.functions_removed"] += stripped.functions_removed
    with tracer.span("link.link"):
        image = link_binary([machine], entry_symbol=entry,
                            outlined_layout="appended", target=target,
                            layout="source", layout_profile=None,
                            layout_seed=0)
    with tracer.span("link.verify"):
        verify_image(image, target=target)
    return image, counts


def fast_build_edit(tracer, items: Sequence[Tuple[str, str]], edited: str,
                    machine_modules: List[MachineModule], target: str):
    """The public calls a ``fast-build`` one-function edit has to make.

    Parses every module, runs sema and SILGen, lowers and compiles the
    edited module (one outlining round, module-prefixed names, as the
    per-module pipeline does), then links it with the build's other
    machine modules and verifies the image.  Returns ``(image, counts)``.
    """
    spec = get_target(target)
    counts = dict.fromkeys(COUNT_KEYS, 0)
    sil_modules, signatures = _frontend(tracer, items, counts)
    sm = next(sm for sm in sil_modules if sm.name == edited)
    entry = next((m.entry_symbol for m in sil_modules if m.entry_symbol),
                 None)
    module = _lower(tracer, sm, signatures)
    machine = _llc(tracer, module, 1, f"{edited}::", spec, counts)
    linked = [machine if mm.name == edited else mm for mm in machine_modules]
    with tracer.span("link.link"):
        image = link_binary(linked, entry_symbol=entry,
                            outlined_layout="appended", target=target,
                            layout="source", layout_profile=None,
                            layout_seed=0)
    with tracer.span("link.verify"):
        verify_image(image, target=target)
    return image, counts
