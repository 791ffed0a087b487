"""All 26 Swiftlet algorithm benchmarks compile, run, and stay leak-free;
outputs match known-good values (regression-pinned), and every run's
simulator counters match ``tests/fixtures/sim_counters.json``."""

import importlib.util
import os

import pytest

from repro.workloads.swift_benchmarks import BENCHMARK_NAMES, load_benchmark

_MAKE_SIM_COUNTERS = os.path.join(os.path.dirname(__file__), os.pardir,
                                  "fixtures", "make_sim_counters.py")
_spec = importlib.util.spec_from_file_location("make_sim_counters",
                                               _MAKE_SIM_COUNTERS)
make_sim_counters = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_sim_counters)
SIM_COUNTERS = make_sim_counters.load()

# Known-good outputs (pinned from the reference run; any compiler change
# that alters these is a miscompile until proven otherwise).
EXPECTED = {
    "BFS": ["1620"],
    "BoyerMooreHorspool": ["187", "1820"],
    "BucketSort": ["1", "802429"],
    "ClosestPair": ["248"],
    "Combinatorics": ["527861", "477638700", "778555663", "73741816"],
    "CountingSort": ["1", "187381"],
    "DFS": ["765541"],
    "EncodeAndDecodeTree": ["121", "554266", "554266"],
    "GCD": ["210056", "196", "1260"],
    "HashTable": ["400", "400", "-200"],
    "Huffman": ["23", "117", "7"],
    "JSON": ["556205", "22"],
    "KnuthMorrisPratt": ["13", "4", "14", "120"],
    "LCS": ["45", "4", "59"],
    "LRUCache": ["235", "68159", "16"],
    "OctTree": ["729", "814338"],
    "QuickSort": ["1", "60203"],
    "RedBlackTree": ["179", "200", "0", "7"],
    "RunLengthEncoding": ["226", "1"],
    "SimulatedAnnealing": ["1254"],
    "SplayTree": ["142", "150"],
    "StrassenMM": ["756591"],
    "TopologicalSort": ["1", "730778"],
    "ZAlgorithm": ["11615", "4", "8"],
}


def timed_run(name, rounds):
    """Build and run *name* on the pinned timing model, and check the run's
    counters against the fixture when the build matches the fixture's
    (``merge_mode`` off; the target is the session's)."""
    build = make_sim_counters.build(name, rounds)
    run, observed = make_sim_counters.timed_run(build)
    if build.config.merge_mode == "off":
        pinned = SIM_COUNTERS[build.config.target][
            make_sim_counters.config_key(rounds)][name]
        assert observed == pinned, name
    return run


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_benchmark_runs_clean(name):
    run = timed_run(name, 0)
    assert run.leaked == [], name
    if name in EXPECTED:
        assert run.output == EXPECTED[name], name
    else:
        assert run.output, name


@pytest.mark.parametrize("name", make_sim_counters.OUTLINED_SUBSET)
def test_benchmark_outlining_equivalence(name):
    """Representative subset: 5-round outlining preserves exact output."""
    base = timed_run(name, 0)
    opt = timed_run(name, 5)
    assert base.output == opt.output, name
    assert opt.leaked == [], name


def test_all_names_have_sources():
    assert len(BENCHMARK_NAMES) == 26
    for name in BENCHMARK_NAMES:
        assert load_benchmark(name).strip(), name
