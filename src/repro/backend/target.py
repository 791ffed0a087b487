"""Calling-convention helpers for the backend.

The ABI facts themselves now live on
:class:`repro.target.spec.CallingConvention`; these helpers resolve a
:class:`~repro.target.spec.TargetSpec` (defaulting to the session target)
and apply it.  Mirrors AAPCS64 + the Swift error convention on both
shipped targets:

* integer/pointer args in ``x0..x7``, float args in ``d0..d7``;
* return in ``x0`` / ``d0``;
* throwing callees report through ``x21`` (0 = success, code+1 on throw);
* ``x19..x20, x22..x28`` and ``d8..d15`` are callee-saved;
* ``x15/x16/x17`` and ``d16/d17`` are reserved compiler scratch.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import BackendError
from repro.target import get_target
from repro.target.spec import TargetSpec


def assign_arg_registers(arg_is_float: Tuple[bool, ...],
                         spec: Optional[TargetSpec] = None) -> List[str]:
    """Argument registers for a call, AAPCS64-style (separate int/fp pools)."""
    cc = get_target(spec).cc
    gprs = iter(cc.arg_gprs)
    fprs = iter(cc.arg_fprs)
    out: List[str] = []
    for is_float in arg_is_float:
        try:
            out.append(next(fprs) if is_float else next(gprs))
        except StopIteration:
            raise BackendError(
                f"more than {cc.max_reg_args} arguments of one class are not "
                "supported (no stack-argument lowering)") from None
    return out


def return_register(is_float: bool,
                    spec: Optional[TargetSpec] = None) -> str:
    cc = get_target(spec).cc
    return cc.ret_fpr if is_float else cc.ret_gpr


def call_clobbers(spec: Optional[TargetSpec] = None) -> Tuple[str, ...]:
    """Registers a call may clobber (caller-saved + the error register)."""
    return get_target(spec).cc.call_clobbers()


def is_callee_saved_reg(reg: str, spec: Optional[TargetSpec] = None) -> bool:
    return get_target(spec).cc.is_callee_saved(reg)
