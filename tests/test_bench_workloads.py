"""The benchmark workloads still run against the program and pass their
own output checks.

`bench/workloads.py` reads outcome fields, ablation row keys and counter
keys of pmpdas by name and checks every output it measures, so removing
or renaming one of them breaks `bench/run.py`. One short round of each
workload here turns such a break into a test failure.
"""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import hostspeed
    import workloads
    return workloads, hostspeed


def _run(workload, clock, rounds):
    state, _ = workload.setup(clock)
    for i in range(rounds):
        entries, busy = workload.round(state, i, clock)
        assert entries and busy
    return workload.check(state)


def test_sample_round_per_arm(bench):
    workloads, hostspeed = bench
    workload = workloads.Sample(0)
    extra = _run(workload, hostspeed.ScaledClock(), len(workloads.ARMS))
    assert extra["pmp_object_bytes_per_cell"] == 32 + (48 + 16 + 4) / 4


def test_publish_round(bench):
    workloads, hostspeed = bench
    extra = _run(workloads.Publish(0), hostspeed.ScaledClock(), 1)
    assert extra["pmp_object_bytes_per_cell"] == 32 + (48 + 16 + 4) / 4


def test_sweep_round(bench, tmp_path):
    workloads, hostspeed = bench
    workload = workloads.Sweep(0, tmp_path, seeds_per_sweep=2)
    extra = _run(workload, hostspeed.ScaledClock(workload.probe_interval_s),
                 1)
    assert len(extra["csv_sha256"]) == 1
