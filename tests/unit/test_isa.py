"""ISA model unit tests: registers, instruction metadata, encoding."""

import pickle
from dataclasses import fields
from typing import Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.instructions import (
    _CALLS,
    _DEF_USE,
    _LOADS,
    _READS_FLAGS,
    _SETS_FLAGS,
    _STORES,
    _TERMINATORS,
    NZCV,
    Cond,
    Label,
    MachineBlock,
    MachineFunction,
    MachineInstr,
    MachineModule,
    Opcode,
    Sym,
    is_mov_rr,
    materialize_constant,
    mov_rr,
)
from repro.isa.registers import (
    LR,
    SP,
    XZR,
    ALLOCATABLE_FPRS,
    ALLOCATABLE_GPRS,
    CALLEE_SAVED_GPRS,
    ERROR_REG,
    RegClass,
    VirtualRegisterAllocator,
    is_callee_saved,
    is_physical,
    is_virtual,
    reg_class,
)
from repro.outliner.candidates import is_legal_to_outline, sequence_uses_sp


class TestRegisters:
    def test_classification(self):
        assert is_physical("x0") and is_physical("d31") and is_physical("sp")
        assert not is_physical("v3")
        assert is_virtual("v3") and is_virtual("fv12")
        assert not is_virtual("x3")

    def test_reg_class(self):
        assert reg_class("x5") is RegClass.GPR
        assert reg_class("d5") is RegClass.FPR
        assert reg_class("v1") is RegClass.GPR
        assert reg_class("fv1") is RegClass.FPR

    def test_error_register_reserved(self):
        assert ERROR_REG == "x21"
        assert ERROR_REG not in ALLOCATABLE_GPRS
        assert ERROR_REG not in CALLEE_SAVED_GPRS

    def test_scratch_not_allocatable(self):
        for scratch in ("x15", "x16", "x17", "x18"):
            assert scratch not in ALLOCATABLE_GPRS
        for scratch in ("d16", "d17"):
            assert scratch not in ALLOCATABLE_FPRS

    def test_callee_saved(self):
        assert is_callee_saved("x19") and is_callee_saved("d8")
        assert is_callee_saved("x29") and is_callee_saved("x30")
        assert not is_callee_saved("x0")

    def test_virtual_allocator(self):
        alloc = VirtualRegisterAllocator()
        assert alloc.new_gpr() == "v0"
        assert alloc.new_gpr() == "v1"
        assert alloc.new_fpr() == "fv0"
        assert alloc.new(RegClass.FPR) == "fv1"


class TestMachineInstr:
    def test_defs_uses_alu(self):
        instr = MachineInstr(Opcode.ADDXrr, ("x0", "x1", "x2"))
        assert instr.defs() == ("x0",)
        assert instr.uses() == ("x1", "x2")

    def test_xzr_filtered(self):
        instr = mov_rr("x0", "x3")
        assert "xzr" not in instr.uses()
        assert is_mov_rr(instr)

    def test_flags_def_use(self):
        subs = MachineInstr(Opcode.SUBSXrr, ("xzr", "x1", "x2"))
        assert "nzcv" in subs.defs()
        cset = MachineInstr(Opcode.CSETXi, ("x0", Cond.EQ))
        assert "nzcv" in cset.uses()

    def test_call_metadata(self):
        bl = MachineInstr(Opcode.BL, (Sym("f"),), implicit_uses=("x0",),
                          implicit_defs=("x0",))
        assert bl.is_call
        assert "x30" in bl.defs()
        assert bl.callee() == "f"
        assert not bl.is_tail_call

    def test_tail_call(self):
        b_sym = MachineInstr(Opcode.B, (Sym("f"),))
        assert b_sym.is_tail_call and b_sym.is_terminator
        b_label = MachineInstr(Opcode.B, (Label("loop"),))
        assert not b_label.is_tail_call
        assert b_label.branch_target() == "loop"

    def test_sp_predicates(self):
        push = MachineInstr(Opcode.STPXpre, ("x29", "x30", "sp", -16))
        assert push.writes_sp() and push.touches_lr()
        load = MachineInstr(Opcode.LDRXui, ("x16", "sp", 8))
        assert load.reads_sp() and not load.writes_sp()

    def test_key_identity(self):
        a = MachineInstr(Opcode.ADDXri, ("x0", "x1", 4))
        b = MachineInstr(Opcode.ADDXri, ("x0", "x1", 4))
        c = MachineInstr(Opcode.ADDXri, ("x0", "x1", 5))
        assert a.key() == b.key() != c.key()

    def test_render(self):
        instr = MachineInstr(Opcode.BL, (Sym("swift_retain"),))
        assert instr.render() == "BL @swift_retain"
        assert mov_rr("x0", "x20").render() == "ORRXrs $x0, $xzr, $x20"

    def test_cond_negate(self):
        assert Cond.EQ.negate() is Cond.NE
        assert Cond.HS.negate() is Cond.LO
        assert Cond.LT.negate() is Cond.GE


class _SetBasedInstr(MachineInstr):
    """Reference: def/use and predicates as computed before the per-opcode
    fact table, straight from ``_DEF_USE`` and the opcode sets."""

    def defs(self) -> Tuple[str, ...]:
        """Registers (incl. nzcv) written by this instruction."""
        idxs, _ = _DEF_USE[self.opcode]
        out = [self.operands[i] for i in idxs if isinstance(self.operands[i], str)]
        out.extend(self.implicit_defs)
        if self.opcode in _SETS_FLAGS:
            out.append(NZCV)
        if self.opcode in _CALLS:
            out.append(LR)
        return tuple(r for r in out if r != XZR)

    def uses(self) -> Tuple[str, ...]:
        """Registers (incl. nzcv) read by this instruction."""
        _, idxs = _DEF_USE[self.opcode]
        out = [self.operands[i] for i in idxs if isinstance(self.operands[i], str)]
        out.extend(self.implicit_uses)
        if self.opcode in _READS_FLAGS:
            out.append(NZCV)
        if self.opcode is Opcode.RET:
            out.append(LR)
        return tuple(r for r in out if r != XZR)

    @property
    def is_call(self) -> bool:
        return self.opcode in _CALLS

    @property
    def is_terminator(self) -> bool:
        return self.opcode in _TERMINATORS or self.is_tail_call

    @property
    def is_tail_call(self) -> bool:
        return self.opcode is Opcode.B and self.operands and isinstance(self.operands[0], Sym)

    @property
    def is_load(self) -> bool:
        return self.opcode in _LOADS

    @property
    def is_store(self) -> bool:
        return self.opcode in _STORES

    def reads_sp(self) -> bool:
        return SP in self.uses()

    def writes_sp(self) -> bool:
        return SP in self.defs()

    def touches_lr(self) -> bool:
        explicit = [op for op in self.operands if isinstance(op, str)]
        return LR in explicit


def _set_based_is_legal_to_outline(instr: MachineInstr) -> bool:
    if instr.opcode is Opcode.RET:
        return True
    if instr.is_terminator:
        return False
    if instr.touches_lr():
        return False
    if instr.reads_sp() or instr.writes_sp():
        return False
    return True


_REGS = st.sampled_from(["v0", "v7", "fv3", "x0", "x19", "x29", "d8",
                         XZR, SP, LR, NZCV])
_OPERANDS = st.one_of(
    _REGS,
    st.builds(Sym, st.sampled_from(["f", "g"])),
    st.builds(Label, st.sampled_from(["bb0", "bb1"])),
    st.sampled_from(list(Cond)),
    st.integers(min_value=-4096, max_value=4096),
    st.floats(allow_nan=False),
    st.none(),
)
_IMPLICIT = st.lists(_REGS, max_size=3).map(tuple)


def _arity(opcode: Opcode) -> int:
    defs, uses = _DEF_USE[opcode]
    return max(defs + uses, default=-1) + 1


class TestOpcodeFacts:
    """The per-opcode fact table answers exactly as the opcode sets do."""

    @pytest.mark.parametrize("opcode", list(Opcode), ids=lambda o: o.name)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_set_based_reference(self, opcode, data):
        n = data.draw(st.integers(_arity(opcode), max(_arity(opcode), 4)))
        operands = tuple(data.draw(_OPERANDS) for _ in range(n))
        implicit_uses = data.draw(_IMPLICIT)
        implicit_defs = data.draw(_IMPLICIT)
        got = MachineInstr(opcode, operands, implicit_uses, implicit_defs)
        want = _SetBasedInstr(opcode, operands, implicit_uses, implicit_defs)
        assert got.defs() == want.defs()
        assert got.uses() == want.uses()
        for name in ("is_call", "is_terminator", "is_load", "is_store"):
            assert getattr(got, name) is getattr(want, name), name
        assert got.touches_lr() is want.touches_lr()
        assert got.reads_sp() is want.reads_sp()
        assert got.writes_sp() is want.writes_sp()
        assert is_legal_to_outline(got) is \
            _set_based_is_legal_to_outline(want)
        assert sequence_uses_sp([got]) is \
            (SP in want.uses() or SP in want.defs())

    def test_queries_leave_no_state_on_the_instruction(self):
        instr = MachineInstr(Opcode.BL, (Sym("f"),), ("x0", "x1"), ("x0",))
        before = pickle.dumps(instr)
        instr.defs(), instr.uses(), is_legal_to_outline(instr)
        assert instr.is_call and not instr.is_store
        assert set(vars(instr)) == {f.name for f in fields(MachineInstr)}
        assert len(vars(instr)) == 4
        assert pickle.dumps(instr) == before


class TestContainers:
    def _function(self):
        fn = MachineFunction(name="f")
        entry = fn.new_block("entry")
        entry.append(MachineInstr(Opcode.CBZX, ("x0", Label("exit"))))
        body = fn.new_block("body")
        body.append(MachineInstr(Opcode.ADDXri, ("x0", "x0", 1)))
        exit_ = fn.new_block("exit")
        exit_.append(MachineInstr(Opcode.RET))
        return fn

    def test_block_navigation(self):
        fn = self._function()
        assert fn.block("body").instrs[0].opcode is Opcode.ADDXri
        with pytest.raises(KeyError):
            fn.block("nope")
        assert fn.blocks[0].successors() == ["exit"]
        assert fn.blocks[0].falls_through()
        assert not fn.blocks[2].falls_through()

    def test_size_accounting(self):
        fn = self._function()
        assert fn.num_instrs == 3
        assert fn.size_bytes == 12
        module = MachineModule(name="m", functions=[fn])
        assert module.text_bytes == 12

    def test_size_helpers_on_spec(self):
        from repro.target.arm64 import ARM64

        fn = self._function()
        assert ARM64.function_text_bytes(fn) == 12
        assert ARM64.total_text_bytes([fn, fn]) == 24
        assert (ARM64.total_metadata_bytes([fn, fn])
                == 2 * ARM64.function_metadata_bytes)


class TestMaterializeConstant:
    @pytest.mark.parametrize("value,max_instrs", [
        (0, 1), (1, 1), (0xFFFF, 1), (0x10000, 1), (-1, 1), (-2, 1),
        (0x12345678, 2), (-0x10000, 2),
    ])
    def test_instruction_counts(self, value, max_instrs):
        assert len(materialize_constant("x0", value)) <= max_instrs
