"""Pluggable compilation targets.

Every layer that needs a byte size, a register-file fact, or a
calling-convention fact resolves a :class:`~repro.target.spec.TargetSpec`
through this registry instead of importing module-level constants:

    from repro.target import get_target
    spec = get_target("thumb2c")

``get_target(None)`` returns the default target — ``arm64`` unless the
``REPRO_TARGET`` environment variable selects another registered name
(the CI matrix axis).  Passing an existing :class:`TargetSpec` through is
allowed so internal APIs can accept ``Union[str, TargetSpec, None]``.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple, Union

from repro.errors import UnknownTargetError
from repro.target.arm64 import ARM64
from repro.target.spec import (
    CallingConvention,
    RegisterFile,
    TargetSpec,
    WidthModel,
)
from repro.target.thumb2c import THUMB2C

#: Name of the target used when nothing is selected explicitly.
DEFAULT_TARGET_NAME = "arm64"

_REGISTRY: Dict[str, TargetSpec] = {}


def register_target(spec: TargetSpec) -> TargetSpec:
    """Add *spec* to the registry (last registration of a name wins)."""
    _REGISTRY[spec.name] = spec
    return spec


register_target(ARM64)
register_target(THUMB2C)


def available_targets() -> Tuple[str, ...]:
    """Registered target names, sorted."""
    return tuple(sorted(_REGISTRY))


def default_target_name() -> str:
    """The default target name, honouring ``REPRO_TARGET`` if set."""
    env = os.environ.get("REPRO_TARGET", "").strip()
    return env or DEFAULT_TARGET_NAME


def get_target(target: Union[str, TargetSpec, None] = None) -> TargetSpec:
    """Resolve a target name (or ``None`` for the default) to its spec."""
    if isinstance(target, TargetSpec):
        return target
    name = target or default_target_name()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownTargetError(
            f"unknown target {name!r}; available: "
            + ", ".join(available_targets())) from None


__all__ = [
    "ARM64",
    "THUMB2C",
    "CallingConvention",
    "DEFAULT_TARGET_NAME",
    "RegisterFile",
    "TargetSpec",
    "WidthModel",
    "available_targets",
    "default_target_name",
    "get_target",
    "register_target",
]
