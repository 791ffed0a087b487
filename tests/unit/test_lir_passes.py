"""LIR pass unit tests: mem2reg, constprop, dce, simplifycfg, phielim."""

import pytest

from repro.errors import VerifierError
from repro.lir import ir
from repro.lir.cfg import compute_dominators, dominance_frontiers, reachable_blocks
from repro.lir.passes import constprop, dce, mem2reg, phielim, simplifycfg
from repro.lir.verifier import verify_function


def build_diamond_with_alloca():
    """if (p) x = 1 else x = 2; return x  -- via an alloca."""
    fn = ir.LIRFunction(symbol="f", has_return_value=True)
    p = fn.new_value()
    fn.params = [p]
    fn.param_is_float = [False]
    entry = fn.new_block("entry")
    slot = fn.new_value()
    entry.instrs.append(ir.Alloca(result=slot, name="x"))
    entry.instrs.append(ir.Store(value=ir.Const(0), ptr=slot))
    entry.instrs.append(ir.CondBr(cond=p, true_target="then",
                                  false_target="else"))
    then = fn.new_block("then")
    then.instrs.append(ir.Store(value=ir.Const(1), ptr=slot))
    then.instrs.append(ir.Br(target="join"))
    els = fn.new_block("else")
    els.instrs.append(ir.Store(value=ir.Const(2), ptr=slot))
    els.instrs.append(ir.Br(target="join"))
    join = fn.new_block("join")
    out = fn.new_value()
    join.instrs.append(ir.Load(result=out, ptr=slot))
    join.instrs.append(ir.Ret(value=out))
    return fn


class TestCFG:
    def test_reachable_blocks_rpo(self):
        fn = build_diamond_with_alloca()
        rpo = reachable_blocks(fn)
        assert rpo[0] == "entry"
        assert set(rpo) == {"entry", "then", "else", "join"}
        assert rpo.index("join") > rpo.index("then")

    def test_dominators(self):
        fn = build_diamond_with_alloca()
        idom = compute_dominators(fn)
        assert idom["entry"] is None
        assert idom["then"] == "entry"
        assert idom["else"] == "entry"
        assert idom["join"] == "entry"

    def test_dominance_frontiers(self):
        fn = build_diamond_with_alloca()
        df = dominance_frontiers(fn)
        assert df["then"] == {"join"}
        assert df["else"] == {"join"}
        assert df["entry"] == set()


class TestMem2Reg:
    def test_diamond_gets_phi(self):
        fn = build_diamond_with_alloca()
        promoted = mem2reg.promote_allocas(fn)
        assert promoted == 1
        verify_function(fn, check_ssa=True)
        phis = fn.block("join").phis()
        assert len(phis) == 1
        incoming = {lbl: op for lbl, op in phis[0].incomings}
        assert incoming["then"] == ir.Const(1)
        assert incoming["else"] == ir.Const(2)
        # No loads/stores/allocas remain.
        kinds = {type(i).__name__ for i in fn.instructions()}
        assert "Alloca" not in kinds and "Load" not in kinds \
            and "Store" not in kinds

    def test_loop_variable(self):
        # i = 0; while (i < p) i = i + 1; return i
        fn = ir.LIRFunction(symbol="loop", has_return_value=True)
        p = fn.new_value()
        fn.params = [p]
        fn.param_is_float = [False]
        entry = fn.new_block("entry")
        slot = fn.new_value()
        entry.instrs.append(ir.Alloca(result=slot, name="i"))
        entry.instrs.append(ir.Store(value=ir.Const(0), ptr=slot))
        entry.instrs.append(ir.Br(target="cond"))
        cond = fn.new_block("cond")
        iv = fn.new_value()
        cond.instrs.append(ir.Load(result=iv, ptr=slot))
        c = fn.new_value()
        cond.instrs.append(ir.Cmp(result=c, pred="<", lhs=iv, rhs=p))
        cond.instrs.append(ir.CondBr(cond=c, true_target="body",
                                     false_target="exit"))
        body = fn.new_block("body")
        iv2 = fn.new_value()
        body.instrs.append(ir.Load(result=iv2, ptr=slot))
        nxt = fn.new_value()
        body.instrs.append(ir.BinOp(result=nxt, op="+", lhs=iv2,
                                    rhs=ir.Const(1)))
        body.instrs.append(ir.Store(value=nxt, ptr=slot))
        body.instrs.append(ir.Br(target="cond"))
        exit_ = fn.new_block("exit")
        out = fn.new_value()
        exit_.instrs.append(ir.Load(result=out, ptr=slot))
        exit_.instrs.append(ir.Ret(value=out))

        mem2reg.promote_allocas(fn)
        verify_function(fn, check_ssa=True)
        phis = fn.block("cond").phis()
        assert len(phis) == 1
        labels = {lbl for lbl, _ in phis[0].incomings}
        assert labels == {"entry", "body"}


class TestConstProp:
    def test_folds_arithmetic(self):
        fn = ir.LIRFunction(symbol="c", has_return_value=True)
        entry = fn.new_block("entry")
        a = fn.new_value()
        entry.instrs.append(ir.BinOp(result=a, op="*", lhs=ir.Const(6),
                                     rhs=ir.Const(7)))
        entry.instrs.append(ir.Ret(value=a))
        constprop.run_on_function(fn)
        ret = fn.entry.terminator
        assert ret.value == ir.Const(42)

    def test_truncating_division_semantics(self):
        # AArch64 SDIV truncates toward zero: -7 / 2 == -3.
        fn = ir.LIRFunction(symbol="d", has_return_value=True)
        entry = fn.new_block("entry")
        a = fn.new_value()
        entry.instrs.append(ir.BinOp(result=a, op="/", lhs=ir.Const(-7),
                                     rhs=ir.Const(2)))
        b = fn.new_value()
        entry.instrs.append(ir.BinOp(result=b, op="%", lhs=ir.Const(-7),
                                     rhs=ir.Const(2)))
        s = fn.new_value()
        entry.instrs.append(ir.BinOp(result=s, op="-", lhs=a, rhs=b))
        entry.instrs.append(ir.Ret(value=s))
        constprop.run_on_function(fn)
        assert fn.entry.terminator.value == ir.Const(-3 - (-1))

    def test_division_by_zero_not_folded(self):
        fn = ir.LIRFunction(symbol="z", has_return_value=True)
        entry = fn.new_block("entry")
        a = fn.new_value()
        entry.instrs.append(ir.BinOp(result=a, op="/", lhs=ir.Const(1),
                                     rhs=ir.Const(0)))
        entry.instrs.append(ir.Ret(value=a))
        constprop.run_on_function(fn)
        # The division must survive (it traps at runtime).
        assert any(isinstance(i, ir.BinOp) for i in fn.instructions())

    @pytest.mark.parametrize("value,folded", [
        (3.9, 3), (-3.9, -3), (-2.0 ** 63, -(1 << 63)),
        (float("nan"), None), (float("inf"), None), (float("-inf"), None),
        (2.0 ** 63, None), (1.0e300, None), (-1.0e300, None),
    ])
    def test_double_to_int_folds_only_representable_values(self, value,
                                                           folded):
        # Int(x) traps at run time on NaN, infinities and values outside
        # Int64, so those conversions must survive folding.
        fn = ir.LIRFunction(symbol="f", has_return_value=True)
        entry = fn.new_block("entry")
        a = fn.new_value()
        entry.instrs.append(ir.Convert(result=a, kind="double_to_int",
                                       value=ir.Const(value, is_float=True)))
        entry.instrs.append(ir.Ret(value=a))
        constprop.run_on_function(fn)
        if folded is None:
            assert any(isinstance(i, ir.Convert) for i in fn.instructions())
        else:
            assert fn.entry.terminator.value == ir.Const(folded)

    def test_folds_conditional_branch(self):
        fn = build_diamond_with_alloca()
        fn.entry.instrs[-1] = ir.CondBr(cond=ir.Const(1), true_target="then",
                                        false_target="else")
        mem2reg.promote_allocas(fn)
        constprop.run_on_function(fn)
        simplifycfg.run_on_function(fn)
        dce.run_on_function(fn)
        labels = {blk.label for blk in fn.blocks}
        assert "else" not in labels

    def test_unsigned_compare_folding(self):
        fn = ir.LIRFunction(symbol="u", has_return_value=True)
        entry = fn.new_block("entry")
        a = fn.new_value()
        # -1 as unsigned is huge: (u>= 5) must fold to 1.
        entry.instrs.append(ir.Cmp(result=a, pred="u>=", lhs=ir.Const(-1),
                                   rhs=ir.Const(5)))
        entry.instrs.append(ir.Ret(value=a))
        constprop.run_on_function(fn)
        assert fn.entry.terminator.value == ir.Const(1)


class TestDCE:
    def test_removes_unused_pure(self):
        fn = ir.LIRFunction(symbol="d")
        entry = fn.new_block("entry")
        a = fn.new_value()
        entry.instrs.append(ir.BinOp(result=a, op="+", lhs=ir.Const(1),
                                     rhs=ir.Const(2)))
        entry.instrs.append(ir.Ret())
        dce.run_on_function(fn)
        assert len(fn.entry.instrs) == 1

    def test_keeps_calls_and_stores(self):
        fn = ir.LIRFunction(symbol="d")
        entry = fn.new_block("entry")
        a = fn.new_value()
        entry.instrs.append(ir.Call(result=a, callee="g", args=[]))
        entry.instrs.append(ir.Ret())
        dce.run_on_function(fn)
        assert any(isinstance(i, ir.Call) for i in fn.instructions())

    def test_transitive_removal(self):
        fn = ir.LIRFunction(symbol="d")
        entry = fn.new_block("entry")
        a = fn.new_value()
        entry.instrs.append(ir.BinOp(result=a, op="+", lhs=ir.Const(1),
                                     rhs=ir.Const(2)))
        b = fn.new_value()
        entry.instrs.append(ir.BinOp(result=b, op="*", lhs=a, rhs=a))
        entry.instrs.append(ir.Ret())
        removed = dce.run_on_function(fn)
        assert removed == 2


class TestPhiElim:
    def test_copies_inserted(self):
        fn = build_diamond_with_alloca()
        mem2reg.promote_allocas(fn)
        copies = phielim.run_on_function(fn)
        # one staging copy per incoming edge + one at the phi site
        assert copies == 3
        assert not any(isinstance(i, ir.Phi) for i in fn.instructions())
        verify_function(fn, check_ssa=False)

    def test_swap_problem(self):
        """Two phis that exchange values around a loop (the classic case
        broken by naive sequential copy insertion)."""
        fn = ir.LIRFunction(symbol="swap", has_return_value=True)
        p = fn.new_value()
        fn.params = [p]
        fn.param_is_float = [False]
        entry = fn.new_block("entry")
        entry.instrs.append(ir.Br(target="loop"))
        loop = fn.new_block("loop")
        a = fn.new_value()
        b = fn.new_value()
        phi_a = ir.Phi(result=a, incomings=[("entry", ir.Const(1)),
                                            ("loop", b)])
        phi_b = ir.Phi(result=b, incomings=[("entry", ir.Const(2)),
                                            ("loop", a)])
        loop.instrs.append(phi_a)
        loop.instrs.append(phi_b)
        cond = fn.new_value()
        loop.instrs.append(ir.Cmp(result=cond, pred="<", lhs=a, rhs=p))
        loop.instrs.append(ir.CondBr(cond=cond, true_target="loop",
                                     false_target="exit"))
        exit_ = fn.new_block("exit")
        diff = fn.new_value()
        exit_.instrs.append(ir.BinOp(result=diff, op="-", lhs=a, rhs=b))
        exit_.instrs.append(ir.Ret(value=diff))
        phielim.run_on_function(fn)
        # Semantics: after one iteration a=2, b=1.  Verify by symbolic
        # interpretation of the copies.
        env = {}

        def read(op):
            if isinstance(op, ir.Const):
                return op.value
            return env[op]

        # entry -> loop staging copies:
        for instr in fn.block("entry").instrs:
            if isinstance(instr, ir.Copy):
                env[instr.result] = read(instr.value)
        # loop header copies (first iteration):
        header = [i for i in fn.block("loop").instrs
                  if isinstance(i, ir.Copy)]
        staging = header[:2]
        for instr in staging:
            env[instr.result] = read(instr.value)
        assert env[a] == 1 and env[b] == 2
        # back-edge staging copies read the *current* a/b, then the header
        # copies swap them without interference:
        tail = [i for i in fn.block("loop").instrs if isinstance(i, ir.Copy)
                and i not in staging]
        for instr in tail:
            env[instr.result] = read(instr.value)
        for instr in staging:
            env[instr.result] = read(instr.value)
        assert env[a] == 2 and env[b] == 1


class TestVerifier:
    def test_detects_use_before_def(self):
        fn = ir.LIRFunction(symbol="bad")
        entry = fn.new_block("entry")
        a = fn.new_value()
        b = fn.new_value()
        entry.instrs.append(ir.BinOp(result=a, op="+", lhs=b, rhs=ir.Const(1)))
        entry.instrs.append(ir.Ret())
        with pytest.raises(VerifierError):
            verify_function(fn, check_ssa=True)

    def test_detects_missing_terminator(self):
        fn = ir.LIRFunction(symbol="bad")
        entry = fn.new_block("entry")
        entry.instrs.append(ir.BinOp(result=fn.new_value(), op="+",
                                     lhs=ir.Const(1), rhs=ir.Const(2)))
        with pytest.raises(VerifierError):
            verify_function(fn)

    def test_detects_unknown_branch_target(self):
        fn = ir.LIRFunction(symbol="bad")
        entry = fn.new_block("entry")
        entry.instrs.append(ir.Br(target="nowhere"))
        with pytest.raises(VerifierError):
            verify_function(fn)

    def test_detects_double_definition(self):
        fn = ir.LIRFunction(symbol="bad")
        entry = fn.new_block("entry")
        a = fn.new_value()
        entry.instrs.append(ir.BinOp(result=a, op="+", lhs=ir.Const(1),
                                     rhs=ir.Const(2)))
        entry.instrs.append(ir.BinOp(result=a, op="+", lhs=ir.Const(1),
                                     rhs=ir.Const(2)))
        entry.instrs.append(ir.Ret())
        with pytest.raises(VerifierError):
            verify_function(fn, check_ssa=True)
