"""Kernel dispatch throughput: events per CPU second, end to end.

The simulator's host cost is the events it processes per CPU second.
This bench pins that number under a floor for:

- ``pure_timeout`` — a standing population of timeouts nobody waits
  on, drained to completion: queue and dispatch cost at depth, the
  regime of many armed TTL/lease timers;
- every registered ``@scenario`` (:mod:`repro.workloads.scenarios`) —
  the kernel as the repository actually drives it, set-up included;
- ``million_client_zipf`` at 100k clients — the kernel-bound
  population model, at a size where the heap is deep.

Each number is best-of-``REPS`` (the least CPU time), and every timed
scenario run's digest must equal the digest of a fresh plain run, so a
change that makes the kernel faster by taking a different trajectory
fails here too.  Results land in ``BENCH_kernel.json``.

Set ``REPRO_BENCH_SMOKE=1`` for fewer repetitions (CI smoke); the loads
and the floors are the same.
"""

import gc
import os
import random
import time

from repro.analysis.determinism import run_digest
from repro.sim.kernel import Environment
from repro.workloads.scenarios import build_million_client_zipf, iter_scenarios

from conftest import write_bench_results

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

REPS = 2 if SMOKE else 5
PURE_EVENTS = 500_000
MCLIENT_CLIENTS = 100_000
MCLIENT_CONTEXTS = 5_000

#: Events/sec floor on pure_timeout — deliberately far below any
#: measurement, so it only trips on a wholesale regression.
MIN_PURE_EVENTS_PER_SEC = 100_000.0

#: Best-of-REPS events per CPU second below which a load fails: half
#: the lowest best-of-5 seen over five full runs of this bench on a
#: 2-vCPU shared x86-64 host (Python 3.11), rounded down to 1k.  The
#: best-of-5 of one scenario varied by up to 1.8x between those runs
#: (host speed, not code), so the factor 2 is what keeps the floor
#: clear of that spread.  The small scenarios are mostly set-up; their
#: floors pin the whole build-and-run path, not the queue alone.
MIN_EVENTS_PER_SEC = {
    "adhoc_churn": 98_000.0,
    "adhoc_flash_crowd": 55_000.0,
    "adhoc_partition_heal": 88_000.0,
    "fast_path_coalescing": 38_000.0,
    "import_agent": 37_000.0,
    "import_all_local": 34_000.0,
    "import_all_remote": 34_000.0,
    "import_remote_hns": 33_000.0,
    "import_remote_nsms": 35_000.0,
    "mass_renumbering": 36_000.0,
    "million_client_zipf": 154_000.0,
    "nsm_rebinding_wave": 32_000.0,
    "registration_storm": 29_000.0,
    "replica_scheduling": 36_000.0,
    "traced_cold_import": 33_000.0,
    "zipf_workload": 37_000.0,
    "million_client_zipf_100k": 204_000.0,
}


def _cpu(fn):
    """``(fn(), CPU seconds it took)``, collector flushed first."""
    gc.collect()
    start = time.process_time()
    result = fn()
    return result, time.process_time() - start


def load_pure_timeout(env):
    """A standing population of no-waiter timeouts.

    Mostly TTL/lease/refresh deferrals seconds-to-minutes out, a
    sub-second latency band, and a slice of immediates.
    """
    rng = random.Random(42)
    timeout = env.timeout
    for _ in range(PURE_EVENTS):
        r = rng.random()
        if r < 0.10:
            timeout(0.0)
        elif r < 0.40:
            timeout(rng.random() * 250.0)
        else:
            timeout(rng.random() * 120_000.0)


def _row(events, cpu_s):
    return {"events": events, "cpu_s": cpu_s, "events_per_sec": events / cpu_s}


def _measure_scenario(build):
    """Best-of-REPS events/sec of ``build()``, every run digest-checked
    against a fresh plain run."""
    reference = build()
    expected = run_digest(reference)
    events = reference.kernel_counters()["sim.kernel.events_processed"]
    best = float("inf")
    for _ in range(REPS):
        env, cpu_s = _cpu(build)
        digest = run_digest(env)
        assert digest == expected, f"digest moved: {expected} -> {digest}"
        best = min(best, cpu_s)
    row = _row(events, best)
    row["digest"] = expected
    return row


def _check_floor(name, row):
    assert name in MIN_EVENTS_PER_SEC, f"{name}: no floor yet; measure one"
    floor = MIN_EVENTS_PER_SEC[name]
    assert row["events_per_sec"] >= floor, (
        f"{name}: {row['events_per_sec']:.0f} events/s below the "
        f"{floor:.0f} floor"
    )


def _report(name, row):
    print(
        f"  {name:>26}: {row['events_per_sec'] / 1000.0:7.0f}k ev/s "
        f"({row['events']} events, {row['cpu_s'] * 1000.0:7.1f} ms CPU)"
    )


def test_pure_timeout_dispatch():
    best = float("inf")
    for _ in range(REPS):
        env = Environment()
        load_pure_timeout(env)
        _, cpu_s = _cpu(env.run)
        best = min(best, cpu_s)
    row = _row(PURE_EVENTS, best)
    print()
    _report("pure_timeout", row)
    write_bench_results("kernel", "pure_timeout", row)
    assert row["events_per_sec"] >= MIN_PURE_EVENTS_PER_SEC


def test_registered_scenarios_throughput():
    rows = {}
    print()
    for name, builder in iter_scenarios():
        rows[name] = _measure_scenario(lambda: builder(0))
        _report(name, rows[name])
    write_bench_results("kernel", "scenarios", rows)
    for name, row in rows.items():
        _check_floor(name, row)


def test_million_client_zipf_100k():
    row = _measure_scenario(
        lambda: build_million_client_zipf(
            seed=0, clients=MCLIENT_CLIENTS, contexts=MCLIENT_CONTEXTS
        )
    )
    row["clients"] = MCLIENT_CLIENTS
    print()
    _report("million_client_zipf_100k", row)
    write_bench_results("kernel", "million_client_zipf_100k", row)
    _check_floor("million_client_zipf_100k", row)
