"""Cache-key soundness: each BuildConfig field's declared cache stage
says which keys it moves, and no warm build is served a stale entry.

Every field has an alternate value in :func:`alternates` (a field
missing there fails the suite, so a new field cannot skip this check).
Flipping one field must

* move exactly the fingerprints its stage names: ``frontend`` the
  frontend one, ``llc`` the llc and backend ones, ``link`` the backend
  one, ``check``/``speed`` none; and
* on both pipeline shapes, make a *warm* build — on a cache filled by the
  unflipped build — equal a *cold* uncached build with the same flip:
  image bytes, pass reports, outline stats and merge stats.
"""

import shutil
from dataclasses import field, make_dataclass, replace

import pytest

from repro.pipeline import BuildConfig, CancelScope, FaultPlan, parallel
from repro.pipeline import build_program
from repro.pipeline.config import FIELD_STAGES, stage_table
from repro.sim.profile import LayoutProfile
from repro.workloads.appgen import AppSpec, generate_app

#: A small generated app, plus one module with repeated retain+apply sites
#: so that the frontend's SIL outliner has work (appgen code gives it none).
SINK = """
class Sink { var total: Int
    init() { self.total = 0 }
}
func record(s: Sink) { s.total += 1 }
func sinkSpan() {
    let s = Sink()
    record(s: s)
    record(s: s)
    record(s: s)
    record(s: s)
    print(s.total)
}
"""


def _sources():
    sources = generate_app(AppSpec(seed=3, base_features=1, num_vendors=1,
                                   base_handlers=1))
    main = sources.pop("Main")
    sources["Sink"] = SINK
    main = main.replace("import Base\n", "import Base\nimport Sink\n")
    sources["Main"] = main.replace("func main() {\n",
                                   "func main() {\n    sinkSpan()\n")
    return sources


SOURCES = _sources()

SHAPES = ("default", "wholeprogram")

#: Stage -> the fingerprints a flip of one of its fields must move.
MOVES = {
    "frontend": {"frontend"},
    "llc": {"llc", "backend"},
    "link": {"backend"},
    "check": set(),
    "speed": set(),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("stages")
    yield path
    parallel.shutdown_persistent_pool()


@pytest.fixture(scope="module")
def alternates(workdir):
    """Field -> two values; a flip takes whichever the base lacks."""
    profile = str(workdir / "profile.json")
    LayoutProfile(calls={"main": {"feature0_handle0": 3}}).save(profile)
    return {
        "pipeline": ("default", "wholeprogram"),
        "target": ("arm64", "thumb2c"),
        "outline_rounds": (1, 2),
        "data_layout": ("module-order", "interleaved"),
        "gc_metadata_mode": ("attributes", "monolithic"),
        "enable_sil_outlining": (False, True),
        "enable_merge_functions": (False, True),
        "enable_fmsa": (False, True),
        "enable_arc_opt": (True, False),
        "merge_mode": ("off", "exact"),
        "global_dce": (True, False),
        "strip": ("off", "program"),
        "collect_outline_stats": (True, False),
        "outlined_layout": ("appended", "near-callers"),
        "layout": ("source", "random"),
        "layout_seed": (0, 7),
        "profile_path": (None, profile),
        "enable_inliner": (False, True),
        "workers": (1, 2),
        "incremental": (True, False),
        "cache_dir": (str(workdir / "other-a"), str(workdir / "other-b")),
        "incremental_functions": (True, False),
        "incremental_llc": (True, False),
        "persistent_workers": (False, True),
        "verify_image": (True, False),
        "chunk_timeout": (60.0, 30.0),
        "max_chunk_retries": (2, 0),
        "retry_backoff": (0.05, 0.0),
        "fail_fast": (False, True),
        "fault_plan": (None, FaultPlan(seed=5)),  # fires nothing
        "cancel_scope": (None, CancelScope()),
    }


def _flip(config, name, alternates):
    value = next(v for v in alternates[name] if v != getattr(config, name))
    return replace(config, **{name: value})


def _fingerprints(config):
    return {"frontend": config.frontend_fingerprint(),
            "llc": config.llc_fingerprint(),
            "backend": config.backend_fingerprint()}


def _outcome(result):
    image = result.image
    return {"text": image.text_section(), "data": image.data_section(),
            "symbols": image.symbols, "functions": image.functions,
            "pass_reports": result.pass_reports,
            "outline_stats": result.outline_stats,
            "merge_stats": result.report.merge_stats}


def test_every_field_has_an_alternate(alternates):
    assert set(alternates) == set(FIELD_STAGES)


def test_a_field_without_a_stage_fails():
    unstaged = make_dataclass("Unstaged", [("knob", int, field(default=0))],
                              bases=(BuildConfig,))
    with pytest.raises(TypeError, match="knob"):
        stage_table(unstaged)


@pytest.mark.parametrize("name", sorted(FIELD_STAGES))
def test_flip_moves_exactly_its_stage_fingerprints(name, alternates):
    base = BuildConfig()
    before = _fingerprints(base)
    after = _fingerprints(_flip(base, name, alternates))
    moved = {key for key in before if before[key] != after[key]}
    assert moved == MOVES[FIELD_STAGES[name]], (name, FIELD_STAGES[name])


@pytest.fixture(scope="module")
def filled(workdir):
    """Per shape: the unflipped base config and its filled cache dir."""
    bases = {}
    for shape in SHAPES:
        cache_dir = str(workdir / f"base-{shape}")
        base = BuildConfig(pipeline=shape, outline_rounds=1,
                           incremental=True, cache_dir=cache_dir)
        build_program(SOURCES, base)
        bases[shape] = base
    return bases


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("name", sorted(FIELD_STAGES))
def test_warm_flip_equals_cold_flip(shape, name, filled, alternates,
                                    workdir):
    base = filled[shape]
    flipped = _flip(base, name, alternates)
    cold = build_program(SOURCES, replace(flipped, incremental=False))
    warm_config = flipped
    if name != "cache_dir":
        cache_dir = str(workdir / f"warm-{shape}-{name}")
        shutil.copytree(base.cache_dir, cache_dir)
        warm_config = replace(flipped, cache_dir=cache_dir)
    warm = build_program(SOURCES, warm_config)
    assert _outcome(warm) == _outcome(cold)
