"""Machine-code interpreter for the AArch64-like target.

Executes a linked :class:`BinaryImage` with full semantics: registers,
NZCV flags, word-addressed memory, a refcounting heap, and native runtime
functions.  An optional :class:`TimingModel` accumulates cycles.

The interpreter is strict: reads of undefined memory, type-confused cells
(int load of a float cell), over-releases, and out-of-range jumps all raise
— this is what lets the test suite prove outlining preserves semantics.

Dispatch is predecoded threaded code.  The first fetch from an address
decodes the instruction there into a handler: a closure with its register
names, immediates, resolved addresses, fall-through pc and condition test
bound as default arguments.  Every later fetch calls the handler, which
returns the next pc.  Whether timing and profiling are on is fixed when
the :class:`CPU` is built, so handlers are specialised on it instead of
testing it on every step (see DESIGN.md §15).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.errors import SimulationError, TrapError
from repro.isa.instructions import Cond, MachineInstr, Opcode
from repro.isa.registers import LR, XZR
from repro.link.binary import BinaryImage, HEAP_BASE, STACK_BASE
from repro.obs import trace as obs_trace
from repro.runtime.functions import HANDLERS
from repro.runtime.objects import Heap, TypeRegistry
from repro.sim.profile import ProfileCollector
from repro.sim.timing import TimingModel
from repro.target import get_target

EXIT_SENTINEL = 0xDEAD0000
_INT_MASK = (1 << 64) - 1
_INT_MIN = -(1 << 63)
_INT_MAX = (1 << 63) - 1
#: Int64's range as floats; both bounds are exact powers of two.
_FLOAT_INT_MIN = -2.0 ** 63
_FLOAT_INT_END = 2.0 ** 63
#: TrapError code of a float -> Int conversion that does not fit.
CONVERSION_TRAP = 5
_TRAP_NAMES = {0: "unreachable", 1: "array index out of range",
               2: "assertion failed", 3: "division by zero", 4: "trap",
               CONVERSION_TRAP: "float to integer conversion out of range"}
#: Where writes to the zero register go: ``regs[XZR]`` stays 0, so an
#: ``xzr`` read is a constant and needs no test.
_XZR_SINK = "xzr.discarded"

#: Condition code -> test on the (n, z, c, v) flags tuple.
_COND_TESTS: Dict[Cond, Callable[[tuple], bool]] = {
    Cond.EQ: lambda f: f[1],
    Cond.NE: lambda f: not f[1],
    Cond.LT: lambda f: f[0] != f[3],
    Cond.GE: lambda f: f[0] == f[3],
    Cond.GT: lambda f: not f[1] and f[0] == f[3],
    Cond.LE: lambda f: f[1] or f[0] != f[3],
    Cond.HS: lambda f: f[2],
    Cond.LO: lambda f: not f[2],
}

Handler = Callable[[], int]


def _wrap(value: int) -> int:
    value &= _INT_MASK
    if value >= 1 << 63:
        value -= 1 << 64
    return value


def _dst(reg: str) -> str:
    return _XZR_SINK if reg == XZR else reg


def _undefined_read(addr: int, pc: int) -> SimulationError:
    return SimulationError(
        f"read of undefined memory at 0x{addr:x} (pc=0x{pc:x})")


def _float_cell_read(addr: int, pc: int) -> SimulationError:
    return SimulationError(
        f"integer load of float cell at 0x{addr:x} (pc=0x{pc:x})")


def _negative_write(addr: int) -> SimulationError:
    return SimulationError(f"write to negative address 0x{addr:x}")


def _raising(error: type, *args, **kwargs) -> Handler:
    """A handler that raises ``error(*args, **kwargs)`` when executed, so
    a bad instruction faults when it runs, not when it is decoded."""
    def handler():
        raise error(*args, **kwargs)
    return handler


def _chain(*hooks):
    """One ``(src, dst)`` callback running every non-None hook in order,
    or None when there is none."""
    hooks = tuple(hook for hook in hooks if hook is not None)
    if not hooks:
        return None
    if len(hooks) == 1:
        return hooks[0]

    def chained(src, dst):
        for hook in hooks:
            hook(src, dst)
    return chained


def _ignore(src, dst):
    pass


@dataclass
class ExecutionResult:
    output: List[str]
    steps: int
    outlined_steps: int
    cycles: Optional[int]
    leaked: List[int]
    heap_stats: object
    timing: Optional[TimingModel] = None

    @property
    def stdout(self) -> str:
        return "\n".join(self.output)


class CPU:
    """Interprets a linked binary image."""

    def __init__(self, image: BinaryImage,
                 registry: Optional[TypeRegistry] = None,
                 timing: Optional[TimingModel] = None,
                 max_steps: int = 100_000_000,
                 profile: Optional[ProfileCollector] = None):
        self.image = image
        self.timing = timing
        self.profile = profile
        self.max_steps = max_steps
        self.regs: Dict[str, Union[int, float]] = {}
        for i in range(31):
            self.regs[f"x{i}"] = 0
        for i in range(32):
            self.regs[f"d{i}"] = 0.0
        self.regs["sp"] = STACK_BASE
        self.regs[XZR] = 0
        self.flags = (False, True, True, False)  # n z c v
        self.memory: Dict[int, Union[int, float]] = dict(image.data_init)
        self.heap = Heap(self.memory, HEAP_BASE, registry)
        self.output: List[str] = []
        self.runtime_state: Dict[str, int] = {}
        self.steps = 0
        self.outlined_steps = 0
        self.pc = 0
        self._stack_limit = STACK_BASE - (1 << 22)  # 4 MiB stack
        self._outlined_index = self._compute_outlined_indices()
        # Data accesses are charged only inside [lo, hi); an empty range
        # when untimed keeps the memory handlers free of a timing test.
        if timing is not None:
            self._data_lo, self._data_hi = image.data_base, image.data_end
            self._on_data = timing.on_data_access
        else:
            self._data_lo = self._data_hi = 0
            self._on_data = None
        self._load = self.memory.get
        # Variable-width fetch state: address -> instruction index.
        # ``None`` selects the uniform fixed-width rule (pc -> index by
        # shift).
        self._spec = get_target(image.target_name)
        self._addr_to_idx: Optional[Dict[int, int]] = (
            None if image.instr_addrs is None else
            {addr: i for i, addr in enumerate(image.instr_addrs)})
        #: pc -> (handler, is outlined, width), filled on first fetch.
        self._code: Dict[int, Tuple[Handler, bool, int]] = {}
        self._natives: Dict[int, Callable[[], None]] = {}
        self._hooks = self._branch_hooks()

    def _compute_outlined_indices(self) -> List[bool]:
        flags = [False] * len(self.image.instrs)
        for ext in self.image.functions:
            if ext.is_outlined:
                lo = self.image.index_of_addr(ext.start)
                hi = self.image.index_of_addr(ext.end)
                for i in range(lo, hi):
                    flags[i] = True
        return flags

    def _branch_hooks(self) -> Dict[str, Optional[Callable]]:
        """Per kind of control transfer, the ``(src, dst)`` callback the
        timing model and profile want, or None when neither listens."""
        timing, profile = self.timing, self.profile
        on_call = profiled_taken = None
        taken = jump = linked = indirect = None
        if profile is not None:
            on_call = profile.on_call

            def profiled_taken(src, dst):
                profile.on_taken_branch(src)
        if timing is not None:
            taken = timing.on_taken_branch
            jump = timing.on_uncond_branch

            def linked(src, dst):
                timing.on_uncond_branch(src, dst)
                timing.on_call_return()

            def indirect(src, dst):
                timing.on_taken_branch(src, dst)
                timing.on_call_return()
        return {
            "taken": _chain(taken, profiled_taken),  # Bcc/CBZ/CBNZ taken
            "jump": jump,                            # B to a label
            "tail": _chain(on_call, jump),           # tail call into code
            "call": _chain(on_call, linked),         # BL into code
            "icall": _chain(on_call, indirect),      # BLR into code
            "native": on_call,                       # call into the runtime
        }

    def _native_at(self, addr: int) -> Optional[Callable[[], None]]:
        """The runtime function stubbed at *addr*, bound to this CPU and
        charging its cost; None when *addr* is not a runtime stub."""
        native = self._natives.get(addr)
        if native is None:
            name = self.image.runtime_stubs.get(addr)
            if name is None:
                return None
            handler, cost = HANDLERS[name]
            if self.timing is None:
                native = partial(handler, self)
            else:
                charge = self.timing.on_native_call

                def native(handler=handler, cost=cost):
                    handler(self)
                    charge(cost)
            self._natives[addr] = native
        return native

    # -- execution ---------------------------------------------------------------

    def run(self, entry_symbol: Optional[str] = None,
            check_leaks: bool = True) -> ExecutionResult:
        symbol = entry_symbol or self.image.entry_symbol
        if symbol is None or symbol not in self.image.symbols:
            raise SimulationError(f"no entry symbol {symbol!r}")
        self.regs["x30"] = EXIT_SENTINEL
        self.regs["sp"] = STACK_BASE
        timing = self.timing
        fetch = timing.on_instr if timing is not None else None
        code_get = self._code.get
        decode = self._decode
        max_steps = self.max_steps
        steps = self.steps
        outlined_steps = self.outlined_steps
        pc = self.image.symbols[symbol]
        try:
            while pc != EXIT_SENTINEL:
                handler, outlined, width = code_get(pc) or decode(pc)
                steps += 1
                if steps > max_steps:
                    raise SimulationError(
                        f"step limit exceeded ({max_steps})")
                if outlined:
                    outlined_steps += 1
                if fetch is not None:
                    fetch(pc, width)
                pc = handler()
        finally:
            self.pc = pc
            self.steps = steps
            self.outlined_steps = outlined_steps
        leaked = self.heap.leaked_objects() if check_leaks else []
        self._record_metrics(leaked)
        return ExecutionResult(
            output=self.output,
            steps=self.steps,
            outlined_steps=self.outlined_steps,
            cycles=timing.cycles if timing is not None else None,
            leaked=leaked,
            heap_stats=self.heap.stats,
            timing=timing,
        )

    def _record_metrics(self, leaked: List[int]) -> None:
        """Publish execution counters to the ambient metrics registry
        (run-end only: the fetch/execute loop stays uninstrumented)."""
        metrics = obs_trace.metrics()
        if not metrics.enabled:
            return
        metrics.inc("sim.instructions_retired", self.steps)
        metrics.inc("sim.outlined_instructions", self.outlined_steps)
        metrics.inc("sim.leaked_objects", len(leaked))
        timing = self.timing
        if timing is None:
            return
        metrics.inc("sim.cycles", timing.cycles)
        icache = timing.icache
        accesses = icache.hits + icache.misses
        metrics.inc("sim.icache_hits", icache.hits)
        metrics.inc("sim.icache_misses", icache.misses)
        metrics.set_gauge("sim.icache_hit_rate",
                          icache.hits / accesses if accesses else 1.0)
        metrics.inc("sim.taken_branches", timing.taken_branches)
        metrics.inc("sim.mispredicts", timing.mispredicts)
        metrics.inc("sim.text_page_faults", timing.text_page_faults)
        metrics.inc("sim.data_page_faults", timing.data_page_faults)

    # -- decoding ----------------------------------------------------------------

    def _decode(self, pc: int) -> Tuple[Handler, bool, int]:
        """Check that *pc* starts an instruction, decode it, and cache the
        ``(handler, is outlined, width)`` entry the run loop reads."""
        image = self.image
        if self._addr_to_idx is None:
            idx = (pc - image.text_base) >> 2
            if idx < 0 or idx >= len(image.instrs):
                raise SimulationError(f"pc out of text range: 0x{pc:x}")
            width = 4
        else:
            idx = self._addr_to_idx.get(pc, -1)
            if idx < 0:
                raise SimulationError(
                    f"pc is not an instruction start: 0x{pc:x}")
            width = self._spec.instr_bytes(image.instrs[idx])
        instr = image.instrs[idx]
        decoder = _DECODERS.get(instr.opcode)
        if decoder is None:
            handler = _raising(SimulationError,
                               f"unimplemented opcode {instr.opcode}")
        else:
            handler = decoder(self, instr, idx, pc, pc + width)
        entry = self._code[pc] = (handler, self._outlined_index[idx], width)
        return entry


# -- handler factories ----------------------------------------------------------
#
# Each factory takes ``(cpu, instr, idx, pc, next_pc)`` and returns a
# zero-argument handler that executes the instruction and returns the
# next pc.  Everything a handler needs is bound as a default argument, so
# the hot path reads only fast locals.

_DECODERS: Dict[Opcode, Callable[..., Handler]] = {}


def _decodes(*opcodes: Opcode):
    def register(factory):
        for opcode in opcodes:
            _DECODERS[opcode] = factory
        return factory
    return register


# -- integer moves and arithmetic ---------------------------------------------


def _sdiv(x, y):
    if y == 0:
        return 0
    q = abs(x) // abs(y)
    return _wrap(-q if (x < 0) != (y < 0) else q)


def _fdiv(x, y):
    x, y = float(x), float(y)
    if y == 0.0:
        return float("nan") if x == 0.0 else (
            float("inf") if x > 0 else float("-inf"))
    return x / y


def _fsqrt(x):
    x = float(x)
    return x ** 0.5 if x >= 0 else float("nan")


#: ``dst = fn(a)`` opcodes.
_UNARY = {
    Opcode.FMOVDr: float,
    Opcode.SCVTFDX: float,
    Opcode.FNEGDr: lambda x: -float(x),
    Opcode.FSQRTDr: _fsqrt,
}

#: ``dst = fn(a, b)`` opcodes.
_BINARY = {
    Opcode.ADDXrr: lambda x, y: _wrap(x + y),
    Opcode.SUBXrr: lambda x, y: _wrap(x - y),
    Opcode.ANDXrr: lambda x, y: x & y,
    Opcode.EORXrr: lambda x, y: _wrap(x ^ y),
    Opcode.LSLVXrr: lambda x, y: _wrap(x << (y & 63)),
    Opcode.LSRVXrr: lambda x, y: _wrap((x & _INT_MASK) >> (y & 63)),
    Opcode.ASRVXrr: lambda x, y: x >> (y & 63),
    Opcode.SDIVXrr: _sdiv,
    Opcode.FADDDrr: lambda x, y: float(x) + float(y),
    Opcode.FSUBDrr: lambda x, y: float(x) - float(y),
    Opcode.FMULDrr: lambda x, y: float(x) * float(y),
    Opcode.FDIVDrr: _fdiv,
}

#: ``dst = fn(a, b, acc)`` opcodes.
_TERNARY = {
    Opcode.MADDXrrr: lambda x, y, acc: _wrap(x * y + acc),
    Opcode.MSUBXrrr: lambda x, y, acc: _wrap(acc - x * y),
}


@_decodes(*_UNARY)
def _d_unary(cpu, instr, idx, pc, npc):
    d, a = instr.operands

    def unary(regs=cpu.regs, fn=_UNARY[instr.opcode], d=_dst(d), a=a,
              npc=npc):
        regs[d] = fn(regs[a])
        return npc
    return unary


@_decodes(*_BINARY)
def _d_binary(cpu, instr, idx, pc, npc):
    d, a, b = instr.operands

    def binary(regs=cpu.regs, fn=_BINARY[instr.opcode], d=_dst(d), a=a,
               b=b, npc=npc):
        regs[d] = fn(regs[a], regs[b])
        return npc
    return binary


@_decodes(*_TERNARY)
def _d_ternary(cpu, instr, idx, pc, npc):
    d, a, b, acc = instr.operands

    def ternary(regs=cpu.regs, fn=_TERNARY[instr.opcode], d=_dst(d), a=a,
                b=b, acc=acc, npc=npc):
        regs[d] = fn(regs[a], regs[b], regs[acc])
        return npc
    return ternary


@_decodes(Opcode.MOVZXi, Opcode.MOVNXi, Opcode.FMOVDi, Opcode.ADRP)
def _d_constant(cpu, instr, idx, pc, npc):
    op = instr.opcode
    if op is Opcode.FMOVDi:
        value = float(instr.operands[1])
    elif op is Opcode.ADRP:
        value = cpu.image.resolved_sym[idx] & ~0xFFF
    else:
        value = instr.operands[1] << instr.operands[2]
        value = _wrap(value if op is Opcode.MOVZXi else ~value)

    def constant(regs=cpu.regs, d=_dst(instr.operands[0]), value=value,
                 npc=npc):
        regs[d] = value
        return npc
    return constant


@_decodes(Opcode.MOVKXi)
def _d_movk(cpu, instr, idx, pc, npc):
    d, imm, shift = instr.operands

    def movk(regs=cpu.regs, r=d, d=_dst(d), keep=~(0xFFFF << shift),
             bits=imm << shift, npc=npc):
        regs[d] = _wrap((regs[r] & _INT_MASK & keep) | bits)
        return npc
    return movk


@_decodes(Opcode.ORRXrs)
def _d_orr(cpu, instr, idx, pc, npc):
    d, a, b = instr.operands

    def orr(regs=cpu.regs, d=_dst(d), a=a, b=b, npc=npc):
        regs[d] = regs[a] | regs[b]
        return npc
    return orr


@_decodes(Opcode.ADDXri, Opcode.SUBXri, Opcode.ADDlo)
def _d_add_imm(cpu, instr, idx, pc, npc):
    d, a, imm = instr.operands
    if instr.opcode is Opcode.ADDlo:
        # A page offset: the sum is an address, never wrapped.
        def add_lo(regs=cpu.regs, d=_dst(d), a=a,
                   low=cpu.image.resolved_sym[idx] & 0xFFF, npc=npc):
            regs[d] = regs[a] + low
            return npc
        return add_lo

    def add_imm(regs=cpu.regs, d=_dst(d), a=a,
                imm=-imm if instr.opcode is Opcode.SUBXri else imm, npc=npc):
        value = regs[a] + imm
        regs[d] = (value if _INT_MIN <= value <= _INT_MAX
                   else _wrap(value))
        return npc
    return add_imm


@_decodes(Opcode.SUBSXri)
def _d_subs_ri(cpu, instr, idx, pc, npc):
    d, a, imm = instr.operands

    def subs_ri(cpu=cpu, regs=cpu.regs, d=_dst(d), a=a, imm=imm,
                uimm=imm & _INT_MASK, npc=npc):
        x = regs[a]
        value = x - imm
        if not _INT_MIN <= value <= _INT_MAX:
            value = _wrap(value)
        cpu.flags = (value < 0, value == 0, (x & _INT_MASK) >= uimm,
                     (x < 0) != (imm < 0) and (x < 0) != (value < 0))
        regs[d] = value
        return npc
    return subs_ri


@_decodes(Opcode.SUBSXrr)
def _d_subs_rr(cpu, instr, idx, pc, npc):
    d, a, b = instr.operands

    def subs_rr(cpu=cpu, regs=cpu.regs, d=_dst(d), a=a, b=b, npc=npc):
        x = regs[a]
        y = regs[b]
        value = x - y
        if not _INT_MIN <= value <= _INT_MAX:
            value = _wrap(value)
        cpu.flags = (value < 0, value == 0,
                     (x & _INT_MASK) >= (y & _INT_MASK),
                     (x < 0) != (y < 0) and (x < 0) != (value < 0))
        regs[d] = value
        return npc
    return subs_rr


@_decodes(Opcode.FCMPDrr)
def _d_fcmp(cpu, instr, idx, pc, npc):
    a, b = instr.operands

    def fcmp(cpu=cpu, regs=cpu.regs, a=a, b=b, npc=npc):
        x, y = float(regs[a]), float(regs[b])
        if x != x or y != y:  # NaN: unordered
            cpu.flags = (False, False, True, True)
        else:
            cpu.flags = (x < y, x == y, x >= y, False)
        return npc
    return fcmp


@_decodes(Opcode.CSETXi)
def _d_cset(cpu, instr, idx, pc, npc):
    d, cond = instr.operands
    test = _COND_TESTS.get(cond)
    if test is None:
        return _raising(SimulationError, f"unknown condition {cond}")

    def cset(cpu=cpu, regs=cpu.regs, d=_dst(d), test=test, npc=npc):
        regs[d] = 1 if test(cpu.flags) else 0
        return npc
    return cset


@_decodes(Opcode.FCVTZSXD)
def _d_fcvtzs(cpu, instr, idx, pc, npc):
    d, a = instr.operands
    message = f"trap: {_TRAP_NAMES[CONVERSION_TRAP]} (pc=0x{pc:x})"

    def fcvtzs(regs=cpu.regs, d=_dst(d), a=a, message=message, npc=npc):
        value = float(regs[a])
        # Swift's Int(_: Double) traps on NaN, infinities and anything
        # whose truncation does not fit in Int64 (NaN fails both tests).
        if not _FLOAT_INT_MIN <= value < _FLOAT_INT_END:
            raise TrapError(message, code=CONVERSION_TRAP)
        regs[d] = int(value)
        return npc
    return fcvtzs


# -- memory -------------------------------------------------------------------
#
# ``[base + imm]`` and ``[base + index*8]`` share one address rule: the
# immediate form reads the index from xzr, the indexed form adds 0.
# Loads check the cell before they charge the data access; stores reject
# negative addresses.  ``lo``/``hi`` is the timed data range (empty when
# untimed, see CPU.__init__).


_INDEXED = {Opcode.LDRXroX, Opcode.STRXroX, Opcode.LDRDroX, Opcode.STRDroX}


def _address_operands(instr: MachineInstr) -> Tuple[str, str, str, int]:
    """``(reg, base, index, imm)`` of a single-register load or store."""
    reg, base, offset = instr.operands
    if instr.opcode in _INDEXED:
        return reg, base, offset, 0
    return reg, base, XZR, offset


@_decodes(Opcode.LDRXui, Opcode.LDRXroX)
def _d_load(cpu, instr, idx, pc, npc):
    d, a, index, imm = _address_operands(instr)

    def load(regs=cpu.regs, get=cpu._load, lo=cpu._data_lo, hi=cpu._data_hi,
             on_data=cpu._on_data, d=_dst(d), a=a, index=index, imm=imm,
             pc=pc, npc=npc):
        addr = regs[a] + (regs[index] << 3) + imm
        value = get(addr)
        if value is None:
            raise _undefined_read(addr, pc)
        if isinstance(value, float):
            raise _float_cell_read(addr, pc)
        if lo <= addr < hi:
            on_data(addr)
        regs[d] = value
        return npc
    return load


@_decodes(Opcode.LDRDui, Opcode.LDRDroX)
def _d_load_float(cpu, instr, idx, pc, npc):
    d, a, index, imm = _address_operands(instr)

    def load_float(regs=cpu.regs, get=cpu._load, lo=cpu._data_lo,
                   hi=cpu._data_hi, on_data=cpu._on_data, d=_dst(d), a=a,
                   index=index, imm=imm, pc=pc, npc=npc):
        addr = regs[a] + (regs[index] << 3) + imm
        value = get(addr)
        if value is None:
            raise _undefined_read(addr, pc)
        if lo <= addr < hi:
            on_data(addr)
        regs[d] = float(value)
        return npc
    return load_float


@_decodes(Opcode.STRXui, Opcode.STRXroX)
def _d_store(cpu, instr, idx, pc, npc):
    s, a, index, imm = _address_operands(instr)

    def store(regs=cpu.regs, memory=cpu.memory, lo=cpu._data_lo,
              hi=cpu._data_hi, on_data=cpu._on_data, s=s, a=a, index=index,
              imm=imm, npc=npc):
        addr = regs[a] + (regs[index] << 3) + imm
        if addr < 0:
            raise _negative_write(addr)
        memory[addr] = regs[s]
        if lo <= addr < hi:
            on_data(addr)
        return npc
    return store


@_decodes(Opcode.STRDui, Opcode.STRDroX)
def _d_store_float(cpu, instr, idx, pc, npc):
    s, a, index, imm = _address_operands(instr)

    def store_float(regs=cpu.regs, memory=cpu.memory, lo=cpu._data_lo,
                    hi=cpu._data_hi, on_data=cpu._on_data, s=s, a=a,
                    index=index, imm=imm, npc=npc):
        addr = regs[a] + (regs[index] << 3) + imm
        if addr < 0:
            raise _negative_write(addr)
        memory[addr] = float(regs[s])
        if lo <= addr < hi:
            on_data(addr)
        return npc
    return store_float


@_decodes(Opcode.STPXi)
def _d_stp(cpu, instr, idx, pc, npc):
    r1, r2, a, imm = instr.operands

    def stp(regs=cpu.regs, memory=cpu.memory, lo=cpu._data_lo,
            hi=cpu._data_hi, on_data=cpu._on_data, r1=r1, r2=r2, a=a,
            imm=imm, npc=npc):
        addr = regs[a] + imm
        if addr < 0:
            raise _negative_write(addr)
        memory[addr] = regs[r1]
        if lo <= addr < hi:
            on_data(addr)
        addr += 8
        if addr < 0:
            raise _negative_write(addr)
        memory[addr] = regs[r2]
        if lo <= addr < hi:
            on_data(addr)
        return npc
    return stp


@_decodes(Opcode.STPXpre)
def _d_stp_pre(cpu, instr, idx, pc, npc):
    r1, r2, a, imm = instr.operands

    def push_pair(regs=cpu.regs, memory=cpu.memory, lo=cpu._data_lo,
                  hi=cpu._data_hi, on_data=cpu._on_data,
                  limit=cpu._stack_limit, r1=r1, r2=r2, a=a, imm=imm,
                  npc=npc):
        addr = regs[a] + imm
        if addr < limit:
            raise SimulationError("stack overflow")
        # The limit is positive, so no negative-address check is needed.
        memory[addr] = regs[r1]
        if lo <= addr < hi:
            on_data(addr)
        memory[addr + 8] = regs[r2]
        if lo <= addr + 8 < hi:
            on_data(addr + 8)
        regs[a] = addr
        return npc
    return push_pair


@_decodes(Opcode.LDPXi)
def _d_ldp(cpu, instr, idx, pc, npc):
    r1, r2, a, imm = instr.operands

    def ldp(regs=cpu.regs, load=cpu._load, r1=_dst(r1), r2=_dst(r2), a=a,
            imm=imm, pc=pc, npc=npc):
        addr = regs[a] + imm
        value = load(addr)
        if value is None:
            raise _undefined_read(addr, pc)
        regs[r1] = value
        value = load(addr + 8)
        if value is None:
            raise _undefined_read(addr + 8, pc)
        regs[r2] = value
        return npc
    return ldp


@_decodes(Opcode.LDPXpost)
def _d_ldp_post(cpu, instr, idx, pc, npc):
    r1, r2, a, imm = instr.operands

    def pop_pair(regs=cpu.regs, load=cpu._load, r1=_dst(r1), r2=_dst(r2),
                 a=a, imm=imm, pc=pc, npc=npc):
        addr = regs[a]
        value = load(addr)
        if value is None:
            raise _undefined_read(addr, pc)
        regs[r1] = value
        value = load(addr + 8)
        if value is None:
            raise _undefined_read(addr + 8, pc)
        regs[r2] = value
        regs[a] = addr + imm
        return npc
    return pop_pair


@_decodes(Opcode.STRXpre)
def _d_str_pre(cpu, instr, idx, pc, npc):
    r, a, imm = instr.operands

    def push(regs=cpu.regs, memory=cpu.memory, lo=cpu._data_lo,
             hi=cpu._data_hi, on_data=cpu._on_data, limit=cpu._stack_limit,
             r=r, a=a, imm=imm, npc=npc):
        addr = regs[a] + imm
        if addr < limit:
            raise SimulationError("stack overflow")
        memory[addr] = regs[r]
        if lo <= addr < hi:
            on_data(addr)
        regs[a] = addr
        return npc
    return push


@_decodes(Opcode.LDRXpost)
def _d_ldr_post(cpu, instr, idx, pc, npc):
    r, a, imm = instr.operands

    def pop(regs=cpu.regs, load=cpu._load, r=_dst(r), a=a, imm=imm, pc=pc,
            npc=npc):
        addr = regs[a]
        value = load(addr)
        if value is None:
            raise _undefined_read(addr, pc)
        regs[r] = value
        regs[a] = addr + imm
        return npc
    return pop


# -- control flow -------------------------------------------------------------
#
# Hooks come from CPU._branch_hooks.  Where a hook is None the hot
# handlers are built without the call; the rare ones (BLR, tail calls
# into the runtime) call a no-op instead.


@_decodes(Opcode.Bcc)
def _d_bcc(cpu, instr, idx, pc, npc):
    cond = instr.operands[0]
    test = _COND_TESTS.get(cond)
    if test is None:
        return _raising(SimulationError, f"unknown condition {cond}")
    taken = cpu._hooks["taken"]
    target = cpu.image.resolved_target[idx]
    if taken is None:
        def bcc(cpu=cpu, test=test, target=target, npc=npc):
            return target if test(cpu.flags) else npc
    else:
        def bcc(cpu=cpu, test=test, taken=taken, pc=pc, target=target,
                npc=npc):
            if test(cpu.flags):
                taken(pc, target)
                return target
            return npc
    return bcc


@_decodes(Opcode.CBZX, Opcode.CBNZX)
def _d_cbz(cpu, instr, idx, pc, npc):
    r = instr.operands[0]
    # CBZ branches when the register is zero, CBNZ when it is not.
    when_zero = instr.opcode is Opcode.CBZX
    taken = cpu._hooks["taken"]
    target = cpu.image.resolved_target[idx]
    if taken is None:
        def cbz(regs=cpu.regs, r=r, when_zero=when_zero, target=target,
                npc=npc):
            return target if (regs[r] == 0) is when_zero else npc
    else:
        def cbz(regs=cpu.regs, r=r, when_zero=when_zero, taken=taken, pc=pc,
                target=target, npc=npc):
            if (regs[r] == 0) is when_zero:
                taken(pc, target)
                return target
            return npc
    return cbz


@_decodes(Opcode.B)
def _d_b(cpu, instr, idx, pc, npc):
    target = cpu.image.resolved_target[idx]
    if instr.is_tail_call:
        native = cpu._native_at(target)
        if native is not None:
            # Tail call into the runtime: return to the caller.
            def tail_native(regs=cpu.regs, native=native,
                            hook=cpu._hooks["native"] or _ignore, pc=pc,
                            target=target):
                hook(pc, target)
                native()
                return regs[LR]
            return tail_native
        hook = cpu._hooks["tail"]
    else:
        hook = cpu._hooks["jump"]
    if hook is None:
        def jump(target=target):
            return target
    else:
        def jump(hook=hook, pc=pc, target=target):
            hook(pc, target)
            return target
    return jump


@_decodes(Opcode.BL)
def _d_bl(cpu, instr, idx, pc, npc):
    target = cpu.image.resolved_target[idx]
    native = cpu._native_at(target)
    if native is not None:
        hook = cpu._hooks["native"]
        if hook is None:
            def call_native(regs=cpu.regs, native=native, npc=npc):
                regs[LR] = npc
                native()
                return npc
        else:
            def call_native(regs=cpu.regs, native=native, hook=hook, pc=pc,
                            target=target, npc=npc):
                regs[LR] = npc
                hook(pc, target)
                native()
                return npc
        return call_native
    hook = cpu._hooks["call"]
    if hook is None:
        def call(regs=cpu.regs, target=target, npc=npc):
            regs[LR] = npc
            return target
    else:
        def call(regs=cpu.regs, hook=hook, pc=pc, target=target, npc=npc):
            regs[LR] = npc
            hook(pc, target)
            return target
    return call


@_decodes(Opcode.BLR)
def _d_blr(cpu, instr, idx, pc, npc):
    def call_indirect(regs=cpu.regs, native_at=cpu._native_at,
                      on_native=cpu._hooks["native"] or _ignore,
                      on_call=cpu._hooks["icall"] or _ignore,
                      r=instr.operands[0], pc=pc, npc=npc):
        target = regs[r]
        regs[LR] = npc
        native = native_at(target)
        if native is not None:
            on_native(pc, target)
            native()
            return npc
        on_call(pc, target)
        return target
    return call_indirect


@_decodes(Opcode.RET)
def _d_ret(cpu, instr, idx, pc, npc):
    timing = cpu.timing
    if timing is None:
        def ret(regs=cpu.regs):
            return regs[LR]
    else:
        # Returns are predicted; returning to the harness is not a branch.
        def ret(regs=cpu.regs, on_return=timing.on_return):
            target = regs[LR]
            if target != EXIT_SENTINEL:
                on_return()
            return target
    return ret


@_decodes(Opcode.BRK)
def _d_brk(cpu, instr, idx, pc, npc):
    code = instr.operands[0] if instr.operands else 0
    return _raising(
        TrapError, f"trap: {_TRAP_NAMES.get(code, 'trap')} (pc=0x{pc:x})",
        code=code)


@_decodes(Opcode.NOP)
def _d_nop(cpu, instr, idx, pc, npc):
    def nop(npc=npc):
        return npc
    return nop


def run_binary(image: BinaryImage, registry: Optional[TypeRegistry] = None,
               timing: Optional[TimingModel] = None,
               entry_symbol: Optional[str] = None,
               max_steps: int = 100_000_000,
               check_leaks: bool = True,
               profile: Optional[ProfileCollector] = None) -> ExecutionResult:
    """Convenience wrapper: build a CPU and run the image's entry point."""
    cpu = CPU(image, registry=registry, timing=timing, max_steps=max_steps,
              profile=profile)
    with obs_trace.span("sim-run", kind="sim",
                        entry=entry_symbol or image.entry_symbol or "",
                        timed=timing is not None) as span:
        result = cpu.run(entry_symbol=entry_symbol, check_leaks=check_leaks)
        span.annotate(steps=result.steps,
                      outlined_steps=result.outlined_steps)
        if result.cycles is not None:
            span.annotate(cycles=result.cycles)
    return result
