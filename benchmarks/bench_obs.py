"""Observability overhead: instrumentation must cost <5% when enabled.

Runs one representative index lifecycle (CPE_startup construction +
enumeration, then a result-relevant update stream) with :mod:`repro.obs`
disabled and enabled, interleaved A/B to decorrelate machine drift, and
compares the medians.  The disabled path is a single module-level
boolean check per instrumentation site, so the interesting number is
the *enabled* ratio — the budget docs/OBSERVABILITY.md promises is 5%
(CI tolerance is configurable via ``REPRO_BENCH_OBS_TOLERANCE`` because
sub-second workloads on shared runners are noisy).

The second benchmark drives the same graph through the service engine
and compares the structured event log off vs on
(:mod:`repro.obs.events`) — bounding the *enabled* emission cost, which
in turn bounds the disabled one-boolean path.

The third benchmark bounds the forensic plane a server runs with
metrics on: the same engine traffic, metrics on in both runs, with the
flight ring and the history ring removed vs installed
(:mod:`repro.obs.flight` / :mod:`repro.obs.timeseries`; the history
ring ticks every 0.25 s here).  The on side pays one deque append per
span plus one lock-and-compare per request for the ring tick — the
budget for leaving the rings on in production is the same 5%.

The fourth benchmark gates what obs costs on the full join itself:
``enumerate_full_list`` paths/s with obs on divided by paths/s with obs
off.  Obs reads its per-pair counts off the production join's program,
once per program step, so the ratio must stay at or above
:data:`JOIN_FLOOR`.  The config is enumeration-heavy (WG 1.0, k=9, five
top-1% hot pairs, seed 7: 37,861 paths) because the per-pair recording
is a fixed cost per query that needs thousands of paths to amortize.
Each query runs in both modes back to back, and the gate takes the
median over :data:`JOIN_ROUNDS` rounds of each round's paired ratio.

Runs are recorded under ``benchmarks/results/bench_obs.json``,
``benchmarks/results/bench_obs_events.json``,
``benchmarks/results/bench_obs_flight.json`` and
``benchmarks/results/bench_obs_join.json``.
"""

from __future__ import annotations

import os
import statistics
import time

from benchmarks.conftest import bench_config as _config, metric, publish_json
from repro import obs
from repro.core.enumeration import enumerate_full_list
from repro.core.enumerator import CpeEnumerator
from repro.graph import datasets
from repro.workloads.queries import hot_queries
from repro.workloads.updates import relevant_update_stream

#: Allowed enabled/disabled ratio; 1.05 is the documented 5% budget,
#: relaxed via env for noisy shared CI runners.
TOLERANCE = float(os.environ.get("REPRO_BENCH_OBS_TOLERANCE", 1.25))

REPEATS = int(os.environ.get("REPRO_BENCH_OBS_REPEATS", 5))

#: Minimum join paths/s with obs on over obs off.
JOIN_FLOOR = 0.95

#: Timed rounds of the join gate (each runs every query in both modes).
JOIN_ROUNDS = 15


def _workload():
    config = _config()
    graph = datasets.load("WG", config.scale)
    query = hot_queries(graph, 1, config.k, 0.05, seed=config.seed)[0]
    updates = relevant_update_stream(
        graph, query.s, query.t, query.k, 10, 10, seed=config.seed
    )
    return graph, query, updates, config


def _run_once(graph, query, updates) -> float:
    working = graph.copy()
    start = time.perf_counter()
    enumerator = CpeEnumerator(working, query.s, query.t, query.k)
    enumerator.startup()
    for update in updates:
        if working.apply_update(update):
            enumerator.observe(update)
    return time.perf_counter() - start


def bench_obs_overhead_under_budget():
    """Median enabled/disabled ratio stays within the tolerance."""
    graph, query, updates, config = _workload()
    previous = obs.set_enabled(False)
    disabled_times = []
    enabled_times = []
    try:
        _run_once(graph, query, updates)  # warm caches before measuring
        for _ in range(REPEATS):
            obs.disable()
            disabled_times.append(_run_once(graph, query, updates))
            obs.enable()
            obs.reset()
            enabled_times.append(_run_once(graph, query, updates))
    finally:
        obs.set_enabled(previous)
        obs.reset()
    disabled = statistics.median(disabled_times)
    enabled = statistics.median(enabled_times)
    ratio = enabled / disabled
    print(f"\nobs overhead: disabled {disabled * 1e3:.2f} ms, "
          f"enabled {enabled * 1e3:.2f} ms, ratio {ratio:.3f} "
          f"(tolerance {TOLERANCE:.2f})")
    publish_json(
        "bench_obs",
        {
            "disabled_s": metric(disabled),
            "enabled_s": metric(enabled),
            "overhead_ratio": metric(ratio, unit="ratio"),
        },
        config=config,
    )
    assert ratio < TOLERANCE, (
        f"instrumentation overhead ratio {ratio:.3f} exceeds {TOLERANCE:.2f}"
    )


def _run_engine_once(graph, queries, updates, k) -> float:
    from repro.service.engine import PathQueryEngine

    working = graph.copy()
    engine = PathQueryEngine(working, default_k=k)
    start = time.perf_counter()
    for _ in range(3):
        for query in queries:
            engine.handle(
                "query", {"s": query.s, "t": query.t, "k": query.k}
            )
    for update in updates:
        engine.handle(
            "update", {"u": update.u, "v": update.v, "insert": update.insert}
        )
    return time.perf_counter() - start


def bench_events_overhead_under_budget():
    """Engine traffic with the event log on stays within the tolerance.

    The A side (events disabled) is the production default: every emit
    site reduces to one module-boolean check.  The B side takes the
    full ring-buffer write, so the asserted ratio is an upper bound on
    what anyone pays with the log left off.
    """
    from repro.obs import events

    graph, query, updates, config = _workload()
    queries = hot_queries(graph, 4, config.k, 0.05, seed=config.seed)
    previous_obs = obs.set_enabled(False)
    previous_events = events.set_enabled(False)
    disabled_times = []
    enabled_times = []
    try:
        _run_engine_once(graph, queries, updates, config.k)  # warm-up
        for _ in range(REPEATS):
            events.set_enabled(False)
            disabled_times.append(
                _run_engine_once(graph, queries, updates, config.k)
            )
            events.set_enabled(True)
            events.reset()
            enabled_times.append(
                _run_engine_once(graph, queries, updates, config.k)
            )
    finally:
        events.set_enabled(previous_events)
        events.reset()
        obs.set_enabled(previous_obs)
    disabled = statistics.median(disabled_times)
    enabled = statistics.median(enabled_times)
    ratio = enabled / disabled
    print(f"\nevents overhead: disabled {disabled * 1e3:.2f} ms, "
          f"enabled {enabled * 1e3:.2f} ms, ratio {ratio:.3f} "
          f"(tolerance {TOLERANCE:.2f})")
    publish_json(
        "bench_obs_events",
        {
            "disabled_s": metric(disabled),
            "enabled_s": metric(enabled),
            "overhead_ratio": metric(ratio, unit="ratio"),
        },
        config=config,
    )
    assert ratio < TOLERANCE, (
        f"event-log overhead ratio {ratio:.3f} exceeds {TOLERANCE:.2f}"
    )


def _run_engine_rings_once(graph, queries, updates, k, rings) -> float:
    """Engine traffic with the flight and history rings installed or not.

    Mirrors production ticking: the server calls
    ``timeseries.maybe_sample()`` once per handled request, so the
    measured cost includes the per-request decline path plus the
    periodic full samples.
    """
    from repro.obs import timeseries
    from repro.obs.flight import DEFAULT_MAX_SPANS, DEFAULT_WINDOW
    from repro.obs.timeseries import TimeSeriesRing
    from repro.obs.trace import TraceBuffer
    from repro.service.engine import PathQueryEngine

    working = graph.copy()
    engine = PathQueryEngine(working, default_k=k)
    if rings:
        obs.set_trace_sink(
            TraceBuffer(window=DEFAULT_WINDOW, max_spans=DEFAULT_MAX_SPANS)
        )
        timeseries.install(TimeSeriesRing(obs.registry(), interval=0.25))
    try:
        start = time.perf_counter()
        for _ in range(3):
            for query in queries:
                engine.handle(
                    "query", {"s": query.s, "t": query.t, "k": query.k}
                )
                timeseries.maybe_sample()
        for update in updates:
            engine.handle(
                "update",
                {"u": update.u, "v": update.v, "insert": update.insert},
            )
            timeseries.maybe_sample()
        return time.perf_counter() - start
    finally:
        obs.set_trace_sink(None)
        timeseries.install(None)


def bench_flight_overhead_under_budget():
    """Flight ring + history ring stay within the tolerance.

    Both sides run with metrics enabled, so the ratio isolates exactly
    what the rings add on top of ordinary instrumentation: the
    span-ring append and the ring tick.
    """
    graph, query, updates, config = _workload()
    queries = hot_queries(graph, 4, config.k, 0.05, seed=config.seed)
    previous_obs = obs.set_enabled(True)
    disabled_times = []
    enabled_times = []
    try:
        _run_engine_rings_once(  # warm-up
            graph, queries, updates, config.k, rings=False
        )
        for _ in range(REPEATS):
            obs.reset()
            disabled_times.append(_run_engine_rings_once(
                graph, queries, updates, config.k, rings=False
            ))
            obs.reset()
            enabled_times.append(_run_engine_rings_once(
                graph, queries, updates, config.k, rings=True
            ))
    finally:
        obs.set_enabled(previous_obs)
        obs.reset()
    disabled = statistics.median(disabled_times)
    enabled = statistics.median(enabled_times)
    ratio = enabled / disabled
    print(f"\nflight overhead: rings off {disabled * 1e3:.2f} ms, "
          f"on {enabled * 1e3:.2f} ms, ratio {ratio:.3f} "
          f"(tolerance {TOLERANCE:.2f})")
    publish_json(
        "bench_obs_flight",
        {
            "disabled_s": metric(disabled),
            "enabled_s": metric(enabled),
            "flight_overhead_ratio": metric(ratio, unit="ratio"),
        },
        config=config,
    )
    assert ratio < TOLERANCE, (
        f"flight/history ring overhead ratio {ratio:.3f} exceeds "
        f"{TOLERANCE:.2f}"
    )


def _time_join(index, mode: str) -> float:
    """One ``enumerate_full_list`` call with obs off or on (``mode``
    "off" / "obs")."""
    obs.set_enabled(mode == "obs")
    start = time.perf_counter()
    enumerate_full_list(index)
    return time.perf_counter() - start


def bench_join_observed_at_production_speed():
    """Join paths/s with obs on stay >= JOIN_FLOOR of obs off."""
    config = _config(scale=1.0, k=9, num_queries=5)
    graph = datasets.load("WG", config.scale)
    queries = hot_queries(
        graph, config.num_queries, config.k, 0.01, seed=config.seed
    )
    indexes = [CpeEnumerator(graph, q.s, q.t, q.k).index for q in queries]
    paths = sum(len(enumerate_full_list(index)) for index in indexes)
    modes = ("off", "obs")
    rounds = {mode: [] for mode in modes}
    previous = obs.set_enabled(False)
    try:
        for round_no in range(JOIN_ROUNDS + 1):  # round 0 warms up
            spent = dict.fromkeys(modes, 0.0)
            for position, index in enumerate(indexes):
                # Every query runs in both modes back to back, in a
                # rotating order, so host drift and CPU steal on a shared
                # runner hit the modes alike.
                shift = (round_no + position) % len(modes)
                for mode in modes[shift:] + modes[:shift]:
                    spent[mode] += _time_join(index, mode)
            for mode in modes:
                rounds[mode].append(spent[mode])
    finally:
        obs.set_enabled(previous)
        obs.reset()
    rate = {
        mode: paths / statistics.median(times[1:])
        for mode, times in rounds.items()
    }
    # Median over the timed rounds of each round's paired ratio: a
    # round's two modes ran interleaved, so the ratio cancels drift.
    obs_ratio = statistics.median(
        off / on for off, on in zip(rounds["off"][1:], rounds["obs"][1:])
    )
    print(f"\njoin paths/s ({paths} paths): off {rate['off']:,.0f}, "
          f"obs {rate['obs']:,.0f} (ratio {obs_ratio:.3f}); "
          f"floor {JOIN_FLOOR:.2f}")
    publish_json(
        "bench_obs_join",
        {
            **{
                f"join_paths_per_s.{mode}": metric(
                    value, unit="paths/s", direction="higher"
                )
                for mode, value in rate.items()
            },
            "join_obs_paths_ratio": metric(
                obs_ratio, unit="ratio", direction="higher"
            ),
        },
        config=config,
    )
    assert obs_ratio >= JOIN_FLOOR, (
        f"join with obs on runs at {obs_ratio:.3f} of obs off"
    )


__all__ = [
    "TOLERANCE",
    "REPEATS",
    "JOIN_FLOOR",
    "JOIN_ROUNDS",
    "bench_obs_overhead_under_budget",
    "bench_events_overhead_under_budget",
    "bench_flight_overhead_under_budget",
    "bench_join_observed_at_production_speed",
]
