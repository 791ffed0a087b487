"""MergeFunctions (Table I baseline): deduplicate structurally identical
functions.

Canonicalises each function (local value numbering, block indices for
labels, constants included verbatim) and keeps one representative per
equivalence class, rewriting every direct call.  Functions whose address is
taken (closure thunks) are kept: aliasing them would change function
pointer identity.  So is every function of an *exported* module — one
module of a separately compiled program, whose functions other modules may
call by name: deleting one would leave them an undefined symbol.

As the paper reports, exact-duplicate functions are rare in practice
(< 1% size saving) — near-misses differ in a constant or a register.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Tuple

from repro.lir import ir


def const_token(const: ir.Const) -> Tuple:
    """Collision-free canonical token for an immediate.

    Python's ``==``/``hash`` conflate values that the backend materialises
    differently: ``0.0 == -0.0``, ``True == 1``, ``2.0 == 2``.  Two
    functions differing only in such a constant are *not* equivalent (the
    sign of a printed float zero is observable), so the canonical key must
    separate them.  Floats are keyed by their IEEE-754 bit pattern, which
    also distinguishes NaN payloads; bools and ints get distinct tags.
    """
    value = const.value
    if isinstance(value, bool):
        return ("b", value, const.is_float)
    if isinstance(value, float):
        return ("f", struct.pack(">d", value), const.is_float)
    return ("i", value, const.is_float)


def canonical_key(fn: ir.LIRFunction) -> Tuple:
    """Structure-sensitive canonical form of a function body."""
    value_ids: Dict[int, int] = {}

    def vid(value: int) -> int:
        if value not in value_ids:
            value_ids[value] = len(value_ids)
        return value_ids[value]

    block_index = {blk.label: i for i, blk in enumerate(fn.blocks)}

    def canon_op(op: ir.Operand):
        if ir.is_value(op):
            return ("v", vid(op))
        if isinstance(op, ir.Const):
            return ("c",) + const_token(op)
        if isinstance(op, ir.GlobalRef):
            return ("g", op.symbol)
        if isinstance(op, ir.FuncRef):
            return ("f", op.symbol)
        return ("?", repr(op))

    for p in fn.params:
        vid(p)
    body = []
    for blk in fn.blocks:
        row = [block_index[blk.label]]
        for instr in blk.instrs:
            entry = [type(instr).__name__]
            if instr.result is not None:
                entry.append(("def", vid(instr.result)))
            for name, value in sorted(vars(instr).items()):
                if name == "result":
                    continue
                if name in ("ptr", "value", "lhs", "rhs", "cond", "base",
                            "offset", "callee_value"):
                    if value is None:
                        entry.append((name, None))
                    else:
                        entry.append((name, canon_op(value)))
                elif name == "args":
                    entry.append(("args", tuple(canon_op(a) for a in value)))
                elif name == "incomings":
                    entry.append(("inc", tuple(
                        (block_index.get(lbl, -1), canon_op(op))
                        for lbl, op in value)))
                elif name in ("target", "true_target", "false_target"):
                    entry.append((name, block_index.get(value, -1)))
                elif name == "callee":
                    # Call-target identity, spelled out rather than left to
                    # the generic fallback: rewriting callees is exactly
                    # what merging does, so bodies calling different
                    # functions must never share an equivalence class.
                    entry.append(("call-target", value))
                else:
                    # Remaining fields are instruction flags and opcode
                    # selectors (op/pred/kind/is_float/throws/symbol/...):
                    # included verbatim so no flag is ever abstracted away.
                    entry.append((name, value))
            row.append(tuple(entry))
        body.append(tuple(row))
    return (len(fn.params), tuple(fn.param_is_float), fn.throws,
            fn.has_return_value, fn.ret_is_float, tuple(body))


def _address_taken(module: ir.LIRModule) -> set:
    taken = set()
    for fn in module.functions:
        for instr in fn.instructions():
            if isinstance(instr, ir.FuncAddr):
                taken.add(instr.symbol)
    return taken


def run_on_module(module: ir.LIRModule,
                  exported: bool = False) -> Dict[str, int]:
    """Alias duplicates away in *module*; returns the stats dict.

    With *exported* no function may disappear, so nothing is aliased (the
    optimistic merger can still fold such duplicates into priced thunks).
    """
    taken = _address_taken(module)
    groups: Dict[Tuple, List[ir.LIRFunction]] = {}
    for fn in module.functions:
        if (exported or fn.symbol == module.entry_symbol
                or fn.symbol in taken):
            continue
        groups.setdefault(canonical_key(fn), []).append(fn)

    alias: Dict[str, str] = {}
    removed_instrs = 0
    for members in groups.values():
        if len(members) < 2:
            continue
        keep = members[0]
        for dup in members[1:]:
            alias[dup.symbol] = keep.symbol
            removed_instrs += dup.num_instrs
    if alias:
        module.functions = [fn for fn in module.functions
                            if fn.symbol not in alias]
        for fn in module.functions:
            for instr in fn.instructions():
                if isinstance(instr, ir.Call) and instr.callee in alias:
                    instr.callee = alias[instr.callee]
    return {"functions_merged": len(alias),
            "instrs_removed": removed_instrs}
