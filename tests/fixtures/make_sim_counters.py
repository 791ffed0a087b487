"""Regenerate the simulator counter fixture (``sim_counters.json``).

Pins, per target, everything one timed and profiled run of each Swift
benchmark observes: program output, retired and outlined instruction
counts, cycles, icache/iTLB hits and misses, taken branches,
mispredicts, text and data page faults, leaked objects, and the digest
of the call-graph profile the run collected.  All 26 benchmarks are run
unoutlined (``outline_rounds=0``); the six-program subset the outlining
equivalence test uses is also run after five outlining rounds.  The
timing model is the first row of :data:`~repro.sim.timing.DEVICE_GRID`.

The counters are a property of the image and the simulator, so any
change to the fetch/execute loop or the timing model that moves one of
them is a behaviour change until proven otherwise.  ``merge_mode`` is
pinned "off", as in the golden fixtures.

This module is the single source of truth the benchmark-program tests
load (by path) for the program lists, the build configs and the
observation schema.

Usage::

    PYTHONPATH=src python tests/fixtures/make_sim_counters.py [target ...]

With no arguments both targets are regenerated; targets named on the
command line are rewritten and the others kept.  Only run this when a
counter change is *intentional*; commit the diff with an explanation.
"""

import json
import os
import sys

from repro.pipeline import BuildConfig, build_program, run_build
from repro.sim.profile import ProfileCollector
from repro.sim.timing import DEVICE_GRID, TimingModel
from repro.workloads.swift_benchmarks import BENCHMARK_NAMES, load_benchmark

FIXTURE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "sim_counters.json")

TARGETS = ("arm64", "thumb2c")

#: The programs the outlining-equivalence test runs after five rounds.
OUTLINED_SUBSET = ("BFS", "QuickSort", "JSON", "RedBlackTree", "SplayTree",
                   "SimulatedAnnealing")

#: Outlining rounds -> programs run under that setting.
ROUNDS = {0: BENCHMARK_NAMES, 5: OUTLINED_SUBSET}

MAX_STEPS = 20_000_000


def config_key(rounds: int) -> str:
    return f"r{rounds}"


def build(name: str, rounds: int, **knobs):
    """The build the tests and this script share; knobs left out take the
    session defaults (``$REPRO_TARGET``, ``$REPRO_MERGE``)."""
    return build_program({name: load_benchmark(name)},
                         BuildConfig(outline_rounds=rounds, **knobs))


def timed_run(result):
    """Run *result* on the pinned timing model with a profile attached;
    returns ``(execution, observation)``."""
    profile = ProfileCollector()
    run = run_build(result, timing=TimingModel(DEVICE_GRID[0]),
                    max_steps=MAX_STEPS, profile=profile)
    return run, observe(run, profile.finalize(result.image).digest())


def observe(run, profile_digest: str) -> dict:
    """The pinned observation for one timed run."""
    timing = run.timing
    return {
        "output": list(run.output),
        "steps": run.steps,
        "outlined_steps": run.outlined_steps,
        "cycles": run.cycles,
        "icache_hits": timing.icache.hits,
        "icache_misses": timing.icache.misses,
        "itlb_hits": timing.itlb.hits,
        "itlb_misses": timing.itlb.misses,
        "taken_branches": timing.taken_branches,
        "mispredicts": timing.mispredicts,
        "text_page_faults": timing.text_page_faults,
        "data_page_faults": timing.data_page_faults,
        "leaked": len(run.leaked),
        "profile_digest": profile_digest,
    }


def collect(target: str) -> dict:
    out = {}
    for rounds, names in ROUNDS.items():
        out[config_key(rounds)] = {
            name: timed_run(build(name, rounds, target=target,
                                  merge_mode="off"))[1]
            for name in names}
    return out


def load() -> dict:
    with open(FIXTURE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv) -> int:
    targets = tuple(argv) or TARGETS
    fixture = load() if os.path.exists(FIXTURE_PATH) else {}
    for target in targets:
        fixture[target] = collect(target)
        print(f"collected {target}")
    with open(FIXTURE_PATH, "w", encoding="utf-8") as fh:
        json.dump(fixture, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {FIXTURE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
