"""The benchmark tracer still finds every program name it wraps, and
still sees the light client's verification.

`bench/tracing.py` patches functions and methods of the pmpdas modules
by name, so renaming or deleting one of them breaks
`bench/run.py --trace 1`, and it counts a cache miss by the verification
`VerificationCache.check` runs. Installing the tracer here, alone and
around one traced round per arm, turns such a break into a test failure.
"""

import sys
from pathlib import Path

import pmpdas.cli  # noqa: F401  (the tracer patches every loaded module)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _namespaces():
    """Every namespace the tracer may patch: the pmpdas modules and their
    classes, as (name, live dict, snapshot)."""
    out = []
    for name, module in sorted(sys.modules.items()):
        if name != "pmpdas" and not name.startswith("pmpdas."):
            continue
        out.append((name, vars(module), dict(vars(module))))
        for attr, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == name:
                out.append((f"{name}.{attr}", vars(value),
                            dict(vars(value))))
    return out


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    before = _namespaces()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        changed = {name for name, live, snapshot in before
                   if any(live.get(k) is not v for k, v in snapshot.items())}
        for _, module, path in tracing.SPAN_TARGETS + tracing.COUNT_TARGETS:
            owner = ".".join([module] + path.split(".")[:-1])
            assert owner in changed, (module, path)
    finally:
        tracer.uninstall()
    for name, live, snapshot in before:
        assert live.keys() == snapshot.keys(), name
        assert all(live[k] is v for k, v in snapshot.items()), name


def test_traced_sample_round_per_arm(monkeypatch):
    # as `bench/run.py --workload sample --trace 1`: every object a round
    # fetches misses the round's fresh cache and is verified once, in a
    # span the tracer sees
    monkeypatch.syspath_prepend(str(BENCH))
    import hostspeed
    import tracing
    import workloads

    workload = workloads.Sample(0)
    clock = hostspeed.ScaledClock()
    session, _ = workload.setup(clock)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for i in range(len(workloads.ARMS)):
            workload.round(session, i, clock)
    finally:
        tracer.uninstall()
    metrics = tracer.summarize()
    assert metrics["dasnet.sample_and_verify.calls"] == 4
    assert metrics["dasnet.cache.misses"] == \
        metrics["dasnet.verify.calls"] > 0


def test_traced_sample_setup_builds_each_arm_once(monkeypatch):
    # the session builds every arm's objects through build_objects, so
    # `dasnet.build_objects.ms.<arm>` times each arm's build on `sample`
    monkeypatch.syspath_prepend(str(BENCH))
    import hostspeed
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install()
    try:
        workloads.Sample(0).setup(hostspeed.ScaledClock())
    finally:
        tracer.uninstall()
    builds = [name for name, *_ in tracer.spans
              if name.startswith("dasnet.build_objects.")]
    assert sorted(builds) == sorted("dasnet.build_objects." + arm
                                    for arm in tracing.ARMS)
