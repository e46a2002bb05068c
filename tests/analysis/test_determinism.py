"""Determinism checker: clean scenarios pass, planted regressions fail.

The deliberately-planted regressions live here (in test code, which
hnslint does not scan): a ``time.time()`` call inserted into the
``sim/latency.py`` source must trip SIM001, and an ambient-state leak
into ``ConstantLatency.sample`` at runtime must trip the double-run
digest comparison.
"""

import itertools
import json
import pathlib
import time

import pytest

from repro.analysis import check_scenario, lint_source
from repro.analysis.determinism import check_all, run_digest, run_lines
from repro.sim.latency import ConstantLatency
from repro.workloads.scenarios import SCENARIOS, iter_scenarios

ROOT = pathlib.Path(__file__).resolve().parents[2]
LATENCY_PY = ROOT / "src" / "repro" / "sim" / "latency.py"
BENCH_KERNEL = ROOT / "BENCH_kernel.json"


def test_scenario_registry_is_populated_and_sorted():
    names = [name for name, _ in iter_scenarios()]
    assert names == sorted(names)
    assert "fast_path_coalescing" in names
    assert "zipf_workload" in names
    assert len(names) >= 8


def test_every_registered_scenario_is_deterministic():
    checks = check_all(seed=0)
    failed = [c.scenario for c in checks if not c.ok]
    assert failed == []
    for check in checks:
        assert check.digest_a == check.digest_b
        assert check.events_a == check.events_b > 0


def test_determinism_holds_across_seeds_but_seeds_differ():
    builder = SCENARIOS["zipf_workload"]
    check_a = check_scenario("zipf_workload", builder, seed=1)
    check_b = check_scenario("zipf_workload", builder, seed=2)
    assert check_a.ok and check_b.ok
    # different seeds take different trajectories (otherwise the digest
    # is insensitive and the whole check is vacuous)
    assert check_a.digest_a != check_b.digest_a


def test_run_lines_cover_trace_counters_and_clock():
    env = SCENARIOS["replica_scheduling"](0)
    lines = run_lines(env)
    assert lines[-1].startswith("clock|")
    assert any(line.startswith("counter|") for line in lines)
    assert len(lines) > len(env.trace.records)
    assert run_digest(env) == run_digest(env)


def test_check_all_rejects_unknown_scenarios():
    with pytest.raises(KeyError, match="no_such_scenario"):
        check_all(names=["no_such_scenario"])


# ----------------------------------------------------------------------
# Planted regressions
# ----------------------------------------------------------------------
def test_planting_time_time_in_latency_module_fails_lint():
    """Acceptance check: a wall-clock read in sim/latency.py trips SIM001."""
    source = LATENCY_PY.read_text(encoding="utf-8")
    assert lint_source(source, path=str(LATENCY_PY)) == []

    planted = source.replace(
        "return self.base_ms + self.per_byte_ms * size_bytes",
        "return self.base_ms + self.per_byte_ms * size_bytes + time.time()",
        1,
    ).replace("import bisect", "import bisect\nimport time", 1)
    assert planted != source  # the anchor lines still exist

    findings = lint_source(planted, path=str(LATENCY_PY))
    assert [f.rule for f in findings] == ["SIM001"]
    assert "time.time()" in findings[0].message


def test_runtime_clock_leak_is_caught_by_double_run(monkeypatch):
    """An ambient-state leak in ConstantLatency.sample diverges the digest."""
    ticks = itertools.count(1)
    original = ConstantLatency.sample

    def leaky_sample(self, rng, size_bytes=0):
        # The wall clock plus a cross-run counter: strictly increasing
        # between the checker's two runs, so the leak is guaranteed to
        # surface regardless of timer resolution.
        skew = (time.time_ns() % 1000) * 1e-9 + next(ticks) * 1e-3
        return original(self, rng, size_bytes) + skew

    monkeypatch.setattr(ConstantLatency, "sample", leaky_sample)
    check = check_scenario(
        "fast_path_coalescing", SCENARIOS["fast_path_coalescing"], seed=0
    )
    assert not check.ok
    assert check.digest_a != check.digest_b
    assert check.first_divergence


def test_clean_rerun_after_the_leak_passes_again():
    check = check_scenario(
        "fast_path_coalescing", SCENARIOS["fast_path_coalescing"], seed=0
    )
    assert check.ok


def test_run_d_takes_the_monitored_step_loop():
    """Runs A-C use the kernel's unmonitored loop; run D attaches a
    passive monitor, so its events go through ``Environment.step()``."""
    builder = SCENARIOS["fast_path_coalescing"]
    monitors = []

    def spying_builder(seed):
        env = builder(seed)
        monitors.append(env.monitor)
        return env

    check = check_scenario("fast_path_coalescing", spying_builder, seed=0)
    assert check.ok
    assert check.digest_monitored == check.digest_a
    assert [m is None for m in monitors] == [True, True, True, False]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_digest_matches_the_committed_kernel_bench(name):
    """Pin each scenario's trajectory to the digest committed in
    ``BENCH_kernel.json``, not only to a second run of the same code."""
    committed = json.loads(BENCH_KERNEL.read_text(encoding="utf-8"))
    pinned = committed["sections"]["scenarios"][name]["digest"]
    assert run_digest(SCENARIOS[name](0)) == pinned
