"""Pipeline driver tests: configs, reports, phase bookkeeping."""

import pytest

from repro.errors import ReproError
from repro.pipeline import (
    BuildConfig,
    build_lir_modules,
    build_program,
    frontend_to_lir,
    run_build,
)

SOURCE = """
func helper(x: Int) -> Int { return x + 41 }
func main() { print(helper(x: 1)) }
"""


class TestFrontendToLIR:
    def test_produces_optimized_ssa_modules(self):
        program, modules = frontend_to_lir({"M": SOURCE})
        assert len(modules) == 1
        module = modules[0]
        assert module.entry_symbol == "M::main"
        from repro.lir import ir
        from repro.lir.verifier import verify_module

        verify_module(module, check_ssa=True)
        assert not any(isinstance(i, ir.Alloca)
                       for fn in module.functions
                       for i in fn.instructions())

    def test_accepts_pairs_and_dicts(self):
        _, from_dict = frontend_to_lir({"M": SOURCE})
        _, from_pairs = frontend_to_lir([("M", SOURCE)])
        assert from_dict[0].num_instrs == from_pairs[0].num_instrs


class TestBuildProgram:
    def test_unknown_pipeline_rejected(self):
        with pytest.raises(ReproError):
            build_program({"M": SOURCE}, BuildConfig(pipeline="mystery"))

    def test_phase_work_recorded(self):
        result = build_program({"M": SOURCE},
                               BuildConfig(pipeline="wholeprogram"))
        for phase in ("llvm-link", "opt", "llc", "link"):
            assert result.phase_work[phase] > 0

    def test_default_pipeline_produces_module_per_input(self):
        sources = {
            "A": "func fa() -> Int { return 1 }",
            "Main": "import A\nfunc main() { print(fa()) }",
        }
        result = build_program(sources, BuildConfig(pipeline="default"))
        assert len(result.machine_modules) == 2

    @pytest.mark.parametrize("merge_mode", ["exact", "optimistic"])
    def test_default_pipeline_merge_keeps_imported_symbols(self, merge_mode):
        # Each module is merged alone: a duplicate that another module
        # calls must still be defined when the modules are linked.
        body = "{ var t = x * 3 + 10\n for i in 0..<4 { t += i * x } return t }"
        sources = {
            "Lib": (f"func f0(x: Int) -> Int {body}\n"
                    f"func f1(x: Int) -> Int {body}"),
            "Main": "import Lib\nfunc main() { print(f0(x: 1) + f1(x: 2)) }",
        }
        outputs = {
            mode: run_build(build_program(sources, BuildConfig(
                pipeline="default", merge_mode=mode))).output
            for mode in ("off", merge_mode)}
        assert outputs[merge_mode] == outputs["off"]

    def test_wholeprogram_merges_to_one(self):
        sources = {
            "A": "func fa() -> Int { return 1 }",
            "Main": "import A\nfunc main() { print(fa()) }",
        }
        result = build_program(sources, BuildConfig(pipeline="wholeprogram"))
        assert len(result.machine_modules) == 1

    def test_sizes_report_consistent(self):
        from repro.target import get_target

        result = build_program({"M": SOURCE})
        sizes = result.sizes
        spec = get_target(result.image.target_name)
        encoded = sum(spec.instr_bytes(i) for i in result.image.instrs)
        assert sizes.text_bytes == (encoded
                                    + result.image.alignment_padding_bytes)
        assert sizes.binary_bytes == (sizes.text_bytes + sizes.data_bytes
                                      + sizes.metadata_bytes)

    def test_sizes_memoized_and_stable(self):
        # Regression: `sizes` used to recompute SizeReport.from_image on
        # every access; it must now be computed once and stay stable.
        result = build_program({"M": SOURCE})
        first = result.sizes
        assert result.sizes is first
        assert result.sizes == first

    def test_report_has_phase_walls(self):
        result = build_program({"M": SOURCE})
        for phase in ("parse", "sema", "silgen", "lower", "llc", "link"):
            assert phase in result.report.phase_wall
        assert result.report.num_modules == 1
        assert result.report.total_wall > 0
        assert result.report.summary_lines()

    def test_run_build_executes_entry(self):
        result = build_program({"M": SOURCE})
        execution = run_build(result)
        assert execution.output == ["42"]

    def test_registry_reflects_classes(self):
        source = """
class Thing { var v: Int\n var other: Thing
    init() { self.v = 0\n self.other = nil } }
func main() { let t = Thing()\n print(t.v) }
"""
        result = build_program({"M": source})
        decl = result.program.modules[0].classes[0]
        layout = result.registry.class_layout(decl.type_id)
        assert layout.num_fields == 2
        assert layout.ref_field_indices == [1]


class TestPhaseWork:
    """What ``phase_work`` counts in each pipeline shape.

    ``experiments/buildtime.py`` turns these counts into modelled minutes,
    so each shape's definition is pinned here against a count computed
    by hand, outside the pipeline code.
    """

    SOURCES = {
        "A": ("func fa(x: Int) -> Int { return x * 3 + 1 }\n"
              "func unused(x: Int) -> Int { return x * 5 + 2 }\n"),
        "Main": ("import A\nfunc main() { var t = 0\n"
                 " for i in 0..<4 { t += fa(x: i) }\n print(t) }\n"),
    }

    def test_wholeprogram_counts_post_opt_merged_lir(self):
        from repro.lir.linker import link_modules
        from repro.lir.passes import constprop, dce, globaldce, simplifycfg

        config = BuildConfig(pipeline="wholeprogram", outline_rounds=1,
                             merge_mode="off")
        _, modules = frontend_to_lir(self.SOURCES)
        result = build_lir_modules(modules, config)

        # The Figure 10 opt sequence this config selects, run by hand.
        _, fresh = frontend_to_lir(self.SOURCES)
        merged = link_modules(fresh)
        linked_instrs = merged.num_instrs
        for run_on_module in (globaldce.run_on_module,
                              constprop.run_on_module, dce.run_on_module,
                              simplifycfg.run_on_module):
            run_on_module(merged)
        assert merged.num_instrs < linked_instrs  # opt changed the count
        work = result.phase_work
        assert set(work) == {"llvm-link", "opt", "llc", "link"}
        assert work["llvm-link"] == work["opt"] == work["llc"] \
            == merged.num_instrs

    def test_default_counts_machine_instrs(self):
        config = BuildConfig(pipeline="default", outline_rounds=1,
                             merge_mode="off")
        _, modules = frontend_to_lir(self.SOURCES)
        lir_instrs = sum(m.num_instrs for m in modules)
        result = build_lir_modules(modules, config)
        machine_instrs = sum(m.num_instrs for m in result.machine_modules)
        assert machine_instrs != lir_instrs
        assert set(result.phase_work) == {"llc", "link"}
        assert result.phase_work["llc"] == machine_instrs


class TestBuildLIRModules:
    def test_standalone_lir_input(self):
        from repro.lir import ir

        fn = ir.LIRFunction(symbol="lib::f", has_return_value=True)
        p = fn.new_value()
        fn.params = [p]
        fn.param_is_float = [False]
        blk = fn.new_block("entry")
        out = fn.new_value()
        blk.instrs.append(ir.BinOp(result=out, op="*", lhs=p, rhs=ir.Const(2)))
        blk.instrs.append(ir.Ret(value=out))
        module = ir.LIRModule(name="lib", functions=[fn])
        result = build_lir_modules([module],
                                   BuildConfig(global_dce=False,
                                               outline_rounds=0))
        assert result.image.symbols["lib::f"]
