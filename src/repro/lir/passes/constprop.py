"""Local constant folding and copy propagation.

A deliberately simple -Osize-style cleanup: folds arithmetic on constant
operands, propagates copies, and simplifies conditional branches on constant
conditions.  Runs to a fixed point per function.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.lir import ir

_INT_MASK = (1 << 64) - 1
#: Values whose truncation fits in Int64: [-2**63, 2**63).
_INT_MIN = -(1 << 63)
_INT_END = 1 << 63


def _wrap(value: int) -> int:
    value &= _INT_MASK
    if value >= 1 << 63:
        value -= 1 << 64
    return value


def _fold_binop(op: str, lhs, rhs, is_float: bool):
    try:
        if is_float:
            return {
                "+": lambda: lhs + rhs,
                "-": lambda: lhs - rhs,
                "*": lambda: lhs * rhs,
                "/": lambda: lhs / rhs if rhs != 0.0 else None,
            }.get(op, lambda: None)()
        return {
            "+": lambda: _wrap(lhs + rhs),
            "-": lambda: _wrap(lhs - rhs),
            "*": lambda: _wrap(lhs * rhs),
            "/": lambda: _wrap(_int_div(lhs, rhs)) if rhs != 0 else None,
            "%": lambda: _wrap(_int_rem(lhs, rhs)) if rhs != 0 else None,
            "&": lambda: _wrap(lhs & rhs),
            "|": lambda: _wrap(lhs | rhs),
            "^": lambda: _wrap(lhs ^ rhs),
            "<<": lambda: _wrap(lhs << (rhs & 63)),
            ">>": lambda: _wrap(lhs >> (rhs & 63)),
        }.get(op, lambda: None)()
    except (OverflowError, ZeroDivisionError):  # pragma: no cover
        return None


def _int_div(a: int, b: int) -> int:
    """C-style truncating division (AArch64 SDIV semantics)."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _int_rem(a: int, b: int) -> int:
    return a - _int_div(a, b) * b


def _fold_cmp(pred: str, lhs, rhs) -> Optional[int]:
    if pred == "u>=":
        lhs &= _INT_MASK
        rhs &= _INT_MASK
        return 1 if lhs >= rhs else 0
    if pred == "u<":
        lhs &= _INT_MASK
        rhs &= _INT_MASK
        return 1 if lhs < rhs else 0
    return {
        "==": lambda: 1 if lhs == rhs else 0,
        "!=": lambda: 1 if lhs != rhs else 0,
        "<": lambda: 1 if lhs < rhs else 0,
        "<=": lambda: 1 if lhs <= rhs else 0,
        ">": lambda: 1 if lhs > rhs else 0,
        ">=": lambda: 1 if lhs >= rhs else 0,
    }.get(pred, lambda: None)()


def fold_function(fn: ir.LIRFunction) -> int:
    """One folding sweep; returns the number of instructions simplified."""
    changed = 0
    replacement: Dict[int, ir.Operand] = {}
    for blk in fn.blocks:
        new_instrs = []
        for instr in blk.instrs:
            instr.replace_operands(replacement)
            folded: Optional[ir.Operand] = None
            if isinstance(instr, ir.BinOp):
                lhs, rhs = instr.lhs, instr.rhs
                if isinstance(lhs, ir.Const) and isinstance(rhs, ir.Const):
                    value = _fold_binop(instr.op, lhs.value, rhs.value,
                                        instr.is_float)
                    if value is not None:
                        folded = ir.Const(value, is_float=instr.is_float)
                elif isinstance(rhs, ir.Const) and rhs.value == 0 and \
                        instr.op in ("+", "-", "|", "^", "<<", ">>") and \
                        not instr.is_float:
                    folded = lhs
            elif isinstance(instr, ir.Cmp):
                if isinstance(instr.lhs, ir.Const) and isinstance(instr.rhs, ir.Const):
                    value = _fold_cmp(instr.pred, instr.lhs.value,
                                      instr.rhs.value)
                    if value is not None:
                        folded = ir.Const(value)
            elif isinstance(instr, ir.Copy):
                folded = instr.value
            elif isinstance(instr, ir.Neg):
                if isinstance(instr.value, ir.Const):
                    folded = ir.Const(-instr.value.value,
                                      is_float=instr.is_float)
            elif isinstance(instr, ir.Not):
                if isinstance(instr.value, ir.Const):
                    folded = ir.Const(0 if instr.value.value else 1)
            elif isinstance(instr, ir.Convert):
                if isinstance(instr.value, ir.Const):
                    value = instr.value.value
                    if instr.kind == "int_to_double":
                        folded = ir.Const(float(value), is_float=True)
                    elif _INT_MIN <= value < _INT_END:
                        # NaN, infinities and out-of-range values are
                        # left for the conversion to trap at run time.
                        folded = ir.Const(int(value))
            elif isinstance(instr, ir.Phi):
                ops = {op if not isinstance(op, ir.Const) else ("c", op.value,
                                                                op.is_float)
                       for _, op in instr.incomings}
                if len(ops) == 1:
                    only = instr.incomings[0][1]
                    # A phi of identical operands (but not self-referencing).
                    if only != instr.result:
                        folded = only
            if folded is not None and instr.result is not None:
                replacement[instr.result] = folded
                changed += 1
                continue
            if isinstance(instr, ir.CondBr) and isinstance(instr.cond, ir.Const):
                target = (instr.true_target if instr.cond.value
                          else instr.false_target)
                dropped = (instr.false_target if instr.cond.value
                           else instr.true_target)
                new_instrs.append(ir.Br(target=target))
                _remove_phi_edge(fn, dropped, blk.label,
                                 still_has_edge=(target == dropped))
                changed += 1
                continue
            new_instrs.append(instr)
        blk.instrs = new_instrs
    if replacement:
        for blk in fn.blocks:
            for instr in blk.instrs:
                instr.replace_operands(replacement)
    return changed


def _remove_phi_edge(fn: ir.LIRFunction, block_label: str, pred_label: str,
                     still_has_edge: bool) -> None:
    if still_has_edge:
        return
    try:
        blk = fn.block(block_label)
    except Exception:
        return
    for phi in blk.phis():
        phi.incomings = [(lbl, op) for lbl, op in phi.incomings
                         if lbl != pred_label]


def run_on_function(fn: ir.LIRFunction, max_iters: int = 8) -> int:
    total = 0
    for _ in range(max_iters):
        changed = fold_function(fn)
        total += changed
        if not changed:
            break
    return total


def run_on_module(module: ir.LIRModule) -> int:
    return sum(run_on_function(fn) for fn in module.functions)
