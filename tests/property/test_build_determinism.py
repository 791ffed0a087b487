"""Determinism harness for the parallel/incremental pipeline.

The hard guarantee behind `BuildConfig.workers`/`incremental` is that they
NEVER change the produced binary: for any program, any worker count and any
cache state must yield byte-identical ``__text``/``__data`` sections, the
same outlining statistics, and identical interpreter output as a cold
serial build.  hypothesis generates random multi-module Swiftlet programs
(classes for type-id numbering, closures for the program-wide closure
counter, imports for cross-module keys — every coupling the cache key must
cover).
"""

import shutil
import tempfile

from hypothesis import given, settings, strategies as st

from repro.pipeline import BuildConfig, build_program, run_build


@st.composite
def swiftlet_program(draw):
    """A random two-module program exercising cross-module codegen."""
    nfuncs = draw(st.integers(min_value=1, max_value=3))
    consts = [draw(st.integers(min_value=1, max_value=50))
              for _ in range(nfuncs)]
    lib_parts = [f"let libBias = {draw(st.integers(min_value=0, max_value=9))}"]
    for i, c in enumerate(consts):
        lib_parts.append(
            f"func libF{i}(x: Int) -> Int {{ return x * {c} + libBias }}")
    if draw(st.booleans()):
        nfields = draw(st.integers(min_value=1, max_value=3))
        fields = "\n".join(f"    var f{k}: Int" for k in range(nfields))
        inits = "\n".join(f"        self.f{k} = seed + {k}"
                          for k in range(nfields))
        lib_parts.append(
            f"class LibBox {{\n{fields}\n    init(seed: Int) {{\n{inits}\n"
            f"    }}\n    func total() -> Int {{\n        return "
            + " + ".join(f"self.f{k}" for k in range(nfields))
            + "\n    }\n}")
        use_class = True
    else:
        use_class = False

    main_lines = ["    var acc = 1"]
    for i in range(nfuncs):
        arg = draw(st.integers(min_value=0, max_value=20))
        main_lines.append(f"    acc = acc + libF{i}(x: {arg})")
    if use_class:
        main_lines.append("    let box = LibBox(seed: acc)")
        main_lines.append("    acc = acc + box.total()")
    if draw(st.booleans()):
        step = draw(st.integers(min_value=1, max_value=5))
        main_lines.append(
            f"    let bump = {{ (d: Int) -> Int in return d + {step} }}")
        main_lines.append("    acc = bump(acc)")
    loop_n = draw(st.integers(min_value=0, max_value=4))
    main_lines.append(f"    for i in 0..<{loop_n} {{ acc += i }}")
    main_lines.append("    print(acc)")
    main_src = ("import Lib\n\nfunc main() {\n"
                + "\n".join(main_lines) + "\n}\n")
    return [("Lib", "\n".join(lib_parts)), ("Main", main_src)]


def _fingerprint(result):
    """Everything a build reports about its output: image bytes, outlining
    statistics, pass reports, merge statistics and the phase work the
    build-time model reads."""
    return (result.image.text_section(), result.image.data_section(),
            [(s.round_no, s.sequences_outlined, s.functions_created,
              s.bytes_saved) for s in result.outline_stats],
            result.pass_reports, result.report.merge_stats,
            result.phase_work)


@st.composite
def _case(draw):
    return (draw(swiftlet_program()),
            draw(st.sampled_from(["wholeprogram", "default"])),
            draw(st.integers(min_value=0, max_value=2)),
            draw(st.sampled_from(["off", "exact", "optimistic"])))


@settings(max_examples=12, deadline=None)
@given(_case())
def test_builds_identical_across_workers_and_cache(case):
    sources, pipeline, rounds, merge_mode = case
    cache_dir = tempfile.mkdtemp(prefix="repro-det-")
    try:
        def config(**kw):
            return BuildConfig(pipeline=pipeline, outline_rounds=rounds,
                               merge_mode=merge_mode, **kw)

        serial = build_program(sources, config())
        reference = _fingerprint(serial)

        parallel = build_program(sources, config(workers=4))
        assert _fingerprint(parallel) == reference

        cold = build_program(
            sources, config(incremental=True, cache_dir=cache_dir))
        assert _fingerprint(cold) == reference

        warm = build_program(
            sources, config(incremental=True, cache_dir=cache_dir))
        assert warm.report.image_cache_hit
        assert _fingerprint(warm) == reference

        warm_parallel = build_program(
            sources, config(incremental=True, cache_dir=cache_dir,
                            workers=4))
        assert _fingerprint(warm_parallel) == reference

        outputs = {run_build(build).output[0]
                   for build in (serial, parallel, cold, warm, warm_parallel)}
        assert len(outputs) == 1
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
