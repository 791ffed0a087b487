"""Build configuration for the two iOS pipelines (Figures 2 and 10).

Environment defaults
--------------------

Every environment variable the build honours is listed here; each one
only supplies a *default* for the corresponding :class:`BuildConfig`
field and is ignored the moment the field is set explicitly (by code,
by a preset, or by a CLI flag — see `Precedence`_ below).

===================  =======================  ===============================
Variable             BuildConfig field        Meaning
===================  =======================  ===============================
``REPRO_TARGET``     ``target``               Target spec name (CI axis).
``REPRO_MERGE``      ``merge_mode``           Function-merging mode (CI axis).
``REPRO_CACHE_DIR``  ``cache_dir``            Build-cache directory.
===================  =======================  ===============================

Every reader goes through :func:`env_default`, so the table above stays
the single source of truth.  The one exception is
:func:`~repro.target.default_target_name`, which reads ``REPRO_TARGET``
itself: :mod:`repro.target` sits below this module (``BuildConfig``
imports it), so it cannot import :func:`env_default` without a cycle.

Precedence
----------

``explicit field/flag  >  preset  >  environment default  >  built-in``

:meth:`BuildConfig.preset` applies a named preset's fields over the
built-in defaults; anything passed as an override (or as an explicit CLI
flag — the CLI uses ``None``-sentinel defaults to tell "explicit" from
"absent") wins over the preset.

Cache stages
------------

Every :class:`BuildConfig` field declares one cache stage (:data:`STAGES`)
next to its default; the three fingerprints, :data:`SPEED_FIELDS` and the
service wire whitelist are computed from the stages (DESIGN.md §18).
**Rule for a new field:** declare it with ``_knob(stage, default)``, using
the narrowest stage whose keys cover everything the field can change in
the image and the build's reports; edit nothing else.  A field without a
stage fails at import.
"""

from __future__ import annotations

import os
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Dict, Optional

from repro.errors import ReproError
from repro.link.funclayout import LAYOUT_MODES, OUTLINED_LAYOUTS
from repro.lir.linker import DATA_LAYOUTS, GC_METADATA_MODES
from repro.pipeline.faults import FaultPlan
from repro.target import available_targets, default_target_name, get_target

#: Valid pipeline shapes: Figure 2 and Figure 10.
PIPELINES = ("default", "wholeprogram")

#: Valid whole-program function-merging modes.
MERGE_MODES = ("off", "exact", "optimistic")

#: Valid link-time stripping modes.
STRIP_MODES = ("off", "program")

#: The one environment-default table (see the module docstring):
#: variable -> BuildConfig field it defaults.
ENV_DEFAULTS = {
    "REPRO_TARGET": "target",
    "REPRO_MERGE": "merge_mode",
    "REPRO_CACHE_DIR": "cache_dir",
}


def env_default(var: str) -> Optional[str]:
    """Read one documented environment default (None when unset/blank).

    Raises :class:`ReproError` for variables not in :data:`ENV_DEFAULTS`,
    so undocumented env knobs cannot creep back in.
    """
    if var not in ENV_DEFAULTS:
        raise ReproError(f"unknown environment default {var!r}; "
                         f"documented: {', '.join(sorted(ENV_DEFAULTS))}")
    value = os.environ.get(var, "").strip()
    return value or None


#: The cache stages, by the keys a field in each enters: "frontend" the
#: module, function and artifact keys (and every key built on them);
#: "llc" the per-module machine-code key and the image key; "link" the
#: image key only; "check" none, but it travels the service wire;
#: "speed" none, and it never travels the wire.
STAGES = ("frontend", "llc", "link", "check", "speed")


def _knob(stage: str, default=MISSING, *, factory=MISSING, **meta):
    """A BuildConfig field in cache *stage*; *meta* may add ``choices``
    (its valid values, or a callable returning them) and ``encode`` (its
    fingerprint text, default ``repr``)."""
    return field(default=default, default_factory=factory,
                 metadata=dict(meta, stage=stage))


def _target_tag(name: str) -> str:
    spec = get_target(name)
    return f"{spec.name}:{spec.fingerprint()[:12]}"


def _profile_tag(path: Optional[str]) -> str:
    """The profile's content digest; its typed reader fails a corrupt
    profile here with ProfileError, before it can key a cache entry."""
    if path is None:
        return "none"
    from repro.sim.profile import profile_file_digest

    return profile_file_digest(path)[:12]


@dataclass
class BuildConfig:
    """Options shared by the default and whole-program pipelines.

    ``pipeline`` selects Figure 2 ("default": each module lowered to machine
    code independently) or Figure 10 ("wholeprogram": LIR from every module
    merged by llvm-link, optimized once, then lowered by a single llc run).
    Each field names its cache stage (see :data:`STAGES`).
    """

    pipeline: str = _knob("llc", "wholeprogram", choices=PIPELINES)
    #: Target specification name (see :mod:`repro.target`); defaults to
    #: ``$REPRO_TARGET`` or "arm64".  Changes instruction widths, alignment
    #: and the outliner's cost model; keyed by the spec's fingerprint, so
    #: two targets never share an llc- or image-cache entry.
    target: str = _knob("llc", factory=default_target_name,
                        choices=available_targets, encode=_target_tag)
    #: Rounds of machine outlining; 0 disables.  In the default pipeline
    #: outlining runs per module; in the whole-program pipeline it sees the
    #: entire program (the paper's key distinction, Figure 12).
    outline_rounds: int = _knob("llc", 0)
    #: llvm-link data-layout mode: "module-order" (paper's fix) or
    #: "interleaved" (upstream behaviour causing the §VI-3 regression).
    data_layout: str = _knob("link", "module-order", choices=DATA_LAYOUTS)
    #: llvm-link GC-metadata mode: "attributes" (fixed) or "monolithic".
    gc_metadata_mode: str = _knob("link", "attributes",
                                  choices=GC_METADATA_MODES)
    #: Baseline size optimizations (Table I rows).
    enable_sil_outlining: bool = _knob("frontend", False)
    enable_merge_functions: bool = _knob("link", False)
    enable_fmsa: bool = _knob("link", False)
    enable_arc_opt: bool = _knob("frontend", True)
    #: Whole-program function merging stacked with the outliner:
    #: "off", "exact" (bit-identical dedup only), or "optimistic"
    #: (similarity-hash merging with priced thunks; see
    #: :mod:`repro.lir.passes.optmerge`).  Runs *after* the scalar cleanup
    #: passes so the merger prices exactly the LIR that llc compiles.
    #: Defaults to ``$REPRO_MERGE`` or "off".
    merge_mode: str = _knob(
        "llc", factory=lambda: env_default("REPRO_MERGE") or "off",
        choices=MERGE_MODES)
    #: Strip functions unreachable from the entry point (app builds).
    #: Runs as an early LIR pass over the merged IR (whole-program
    #: pipeline only); see ``strip`` for the link-time machine-level
    #: equivalent that works in both pipeline shapes.
    global_dce: bool = _knob("link", True)
    #: Link-time whole-program stripping: "off" or "program" (remove
    #: machine functions unreachable from the entry symbol through calls
    #: and address-taken references, right before the system link).
    #: Works in both pipeline shapes and sees the *final* machine code —
    #: including outlined and merged functions — so it catches dead code
    #: the early LIR pass cannot (see
    #: :func:`repro.lir.passes.globaldce.strip_program`).
    strip: str = _knob("link", "off", choices=STRIP_MODES)
    #: Collect per-round outlining statistics (Table II).
    collect_outline_stats: bool = _knob("llc", True)
    #: Text layout of outlined functions: "appended" (what the paper
    #: shipped) or "near-callers" (the paper's future work #3).
    outlined_layout: str = _knob("link", "appended",
                                 choices=OUTLINED_LAYOUTS)
    #: Whole-image function ordering (see :mod:`repro.link.funclayout`):
    #: "source" (link order), "callgraph-c3" (profile-guided call-chain
    #: clustering), or "random" (seeded control arm).  "near-callers"
    #: composes only with "source"; the linker rejects other combinations.
    layout: str = _knob("link", "source", choices=LAYOUT_MODES)
    #: Seed for ``layout="random"``.
    layout_seed: int = _knob("link", 0)
    #: Path to a serialized :class:`~repro.sim.profile.LayoutProfile` that
    #: feeds "callgraph-c3" edge weights; None = static call-site census.
    #: The profile's content digest (not the path) enters the image key,
    #: so two builds with equal profiles share cache entries.
    profile_path: Optional[str] = _knob("link", None, encode=_profile_tag)
    #: -Osize trivial inliner at the LIR level (future work #2 interaction).
    enable_inliner: bool = _knob("llc", False)

    # -- build-speed knobs (never affect the produced binary) ---------------
    #: Worker processes for per-module lowering (1 = serial, 0 = auto).
    workers: int = _knob("speed", 1)
    #: Consult/populate the content-addressed build cache.
    incremental: bool = _knob("speed", False)
    #: Cache location; None = $REPRO_CACHE_DIR or a tempdir default.
    cache_dir: Optional[str] = _knob("speed", None)
    #: Layer per-function LIR entries under the module entries, so editing
    #: one function relowers one function (the rest of its module is
    #: assembled from cache).  Only consulted when ``incremental`` is on.
    incremental_functions: bool = _knob("speed", True)
    #: Cache per-module machine code (post-llc) under its own key in the
    #: default pipeline, so a link-only change (layout flip, one-module
    #: edit) re-links cached machine modules instead of re-running llc.
    #: Only consulted when ``incremental`` is on.
    incremental_llc: bool = _knob("speed", True)
    #: Keep the forked worker pool alive across builds in this process
    #: (daemon / batch use) instead of fork+teardown per build.  Worker
    #: payloads are then shipped per task rather than inherited via
    #: fork-time copy-on-write; the fault ladder still tears the pool
    #: down and rebuilds it on a crash.
    persistent_workers: bool = _knob("speed", False)

    # -- robustness knobs (never affect the produced binary) ----------------
    #: Run the post-link binary verifier on every build and every
    #: image-cache hit; a failure raises ImageVerifierError instead of
    #: returning a structurally wrong binary.
    verify_image: bool = _knob("check", True)
    #: Deadline in seconds for one parallel compilation chunk; a chunk
    #: that misses it is retried and finally recompiled serially in the
    #: parent.  None disables the deadline (a hung worker then hangs the
    #: build).
    chunk_timeout: Optional[float] = _knob("speed", 60.0)
    #: In-pool retries per chunk before the serial in-parent re-run.
    max_chunk_retries: int = _knob("speed", 2)
    #: Base backoff in seconds between chunk retry rounds.
    retry_backoff: float = _knob("speed", 0.05)
    #: Disable the degradation ladder: the first chunk failure raises a
    #: typed WorkerCrashError/BuildError instead of retrying.  Useful in
    #: CI, where a flaky worker should be noticed rather than absorbed.
    fail_fast: bool = _knob("speed", False)
    #: Seeded fault-injection schedule (tests/CI only; None = no faults).
    fault_plan: Optional[FaultPlan] = _knob("speed", None)
    #: Cooperative cancellation/deadline scope for this build
    #: (:class:`~repro.pipeline.cancel.CancelScope`); checked at phase
    #: boundaries and between chunk-retry rounds.  The daemon gives every
    #: job its own scope; ``None`` (the one-shot CLI) never cancels.
    cancel_scope: Optional[object] = _knob("speed", None)

    def _fingerprint(self, *stages: str) -> str:
        """``name=value`` for every field of *stages*, in declaration
        order; a field's ``encode`` metadata overrides ``repr``."""
        return ";".join(
            f"{f.name}={f.metadata.get('encode', repr)(getattr(self, f.name))}"
            for f in fields(self) if f.metadata["stage"] in stages)

    def frontend_fingerprint(self) -> str:
        """Module, function and artifact key text (``frontend`` fields)."""
        return self._fingerprint("frontend")

    def llc_fingerprint(self) -> str:
        """Per-module machine-code key text (``llc`` fields)."""
        return self._fingerprint("llc")

    def backend_fingerprint(self) -> str:
        """Image key text (``llc`` and ``link`` fields)."""
        return self._fingerprint("llc", "link")

    @classmethod
    def preset(cls, name: str, **overrides) -> "BuildConfig":
        """A named configuration preset (see :data:`PRESETS`).

        Keyword *overrides* are applied on top of the preset's fields —
        the documented ``explicit > preset > default`` precedence.
        """
        try:
            base = PRESETS[name]
        except KeyError:
            raise ReproError(
                f"unknown preset {name!r}; expected one of: "
                f"{', '.join(sorted(PRESETS))}") from None
        config = cls(**base)
        if overrides:
            try:
                config = replace(config, **overrides)
            except TypeError as exc:
                raise ReproError(f"bad preset override: {exc}") from None
        return config


#: Named presets (:meth:`BuildConfig.preset` / CLI ``--preset``).  Each
#: entry is the full explicit-knob spelling of the preset — the
#: equivalence tests build both and require bit-identical images.
#:
#: ``min-size``
#:     What the paper shipped, plus the stacked optimistic merger: the
#:     whole-program pipeline, five outlining rounds, and link-time
#:     whole-program stripping (``strip="program"`` replaces the early
#:     LIR ``global_dce`` pass — stripping the *final* machine code also
#:     removes outlined/merged bodies orphaned by later passes, which
#:     the early pass can never see).  Slowest builds, smallest binaries.
#: ``fast-build``
#:     Inner-loop iteration: the per-module (Figure 2) pipeline with one
#:     outlining round, function-level incremental caching, auto worker
#:     count and a persistent worker pool.  Fastest warm builds; binaries
#:     are larger than ``min-size``.
#: ``balanced``
#:     Whole-program pipeline with three rounds and exact (bit-identical)
#:     function merging, still incremental and parallel.
PRESETS: Dict[str, Dict[str, object]] = {
    "min-size": {
        "pipeline": "wholeprogram",
        "outline_rounds": 5,
        "merge_mode": "optimistic",
        "global_dce": False,
        "strip": "program",
    },
    "fast-build": {
        "pipeline": "default",
        "outline_rounds": 1,
        "merge_mode": "off",
        "workers": 0,
        "incremental": True,
        "persistent_workers": True,
    },
    "balanced": {
        "pipeline": "wholeprogram",
        "outline_rounds": 3,
        "merge_mode": "exact",
        "workers": 0,
        "incremental": True,
    },
}

def stage_table(cls) -> Dict[str, str]:
    """Field name -> cache stage of config dataclass *cls*; a field
    without one of :data:`STAGES` raises :class:`TypeError`."""
    table = {f.name: f.metadata.get("stage") for f in fields(cls)}
    unstaged = [name for name, stage in table.items() if stage not in STAGES]
    if unstaged:
        raise TypeError(f"{cls.__name__} field(s) without a cache stage: "
                        f"{', '.join(unstaged)}")
    return table


#: Field name -> cache stage, computed at import.
FIELD_STAGES = stage_table(BuildConfig)

#: Build-speed / robustness fields: never in a fingerprint, never on the
#: wire (the bit-identity contract the tests pin).
SPEED_FIELDS = frozenset(
    name for name, stage in FIELD_STAGES.items() if stage == "speed")
