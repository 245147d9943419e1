"""Tests for the temporal stream substrate."""

import random

import pytest

from repro.graph.digraph import DynamicDiGraph
from repro.graph.temporal import (
    TemporalEdge,
    bursty_stream,
    poisson_stream,
    replay_window,
)


class TestPoissonStream:
    def test_count_and_monotone_timestamps(self):
        stream = poisson_stream(range(10), rate=2.0, count=50, seed=1)
        assert len(stream) == 50
        times = [e.timestamp for e in stream]
        assert times == sorted(times)

    def test_rate_controls_density(self):
        slow = poisson_stream(range(10), rate=1.0, count=200, seed=2)
        fast = poisson_stream(range(10), rate=10.0, count=200, seed=2)
        assert fast[-1].timestamp < slow[-1].timestamp

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_stream(range(10), rate=0, count=5)
        with pytest.raises(ValueError):
            poisson_stream([1], rate=1.0, count=5)

    def test_as_tuple(self):
        edge = TemporalEdge(1, 2, 3.5)
        assert edge.as_tuple() == (1, 2, 3.5)


class TestBurstyStream:
    def test_bursts_compress_time(self):
        calm = bursty_stream(range(10), 1.0, 20.0, 0.0, 300, seed=3)
        wild = bursty_stream(range(10), 1.0, 20.0, 0.9, 300, seed=3)
        assert wild[-1].timestamp < calm[-1].timestamp

    def test_validation(self):
        with pytest.raises(ValueError):
            bursty_stream(range(5), 1.0, 2.0, 1.5, 10)
        with pytest.raises(ValueError):
            bursty_stream(range(5), 0.0, 2.0, 0.5, 10)


class TestReplayWindow:
    def test_insert_then_expire(self):
        g = DynamicDiGraph(vertices=range(4))
        stream = [TemporalEdge(0, 1, 0.0), TemporalEdge(2, 3, 10.0)]
        events = list(replay_window(g, stream, window=5.0))
        kinds = [(upd.edge, upd.insert) for _, upd in events]
        assert kinds == [
            ((0, 1), True), ((0, 1), False), ((2, 3), True), ((2, 3), False),
        ]

    def test_rearrival_refreshes(self):
        g = DynamicDiGraph(vertices=range(2))
        stream = [
            TemporalEdge(0, 1, 0.0),
            TemporalEdge(0, 1, 4.0),
            TemporalEdge(1, 0, 12.0),
        ]
        events = list(replay_window(g, stream, window=5.0))
        # (0,1) inserted once, expires at 9 (refreshed), not at 5
        del_times = [
            ts for ts, upd in events if not upd.insert and upd.edge == (0, 1)
        ]
        assert del_times == [9.0]

    def test_initial_edges_never_expire(self):
        g = DynamicDiGraph([(5, 6)])
        stream = [TemporalEdge(0, 1, 0.0)]
        events = list(replay_window(g, stream, window=1.0))
        assert all(upd.edge != (5, 6) for _, upd in events)

    def test_replay_is_a_valid_update_stream(self):
        rng = random.Random(4)
        g = DynamicDiGraph(vertices=range(8))
        stream = poisson_stream(range(8), rate=3.0, count=60, seed=5)
        replay = g.copy()
        for _, upd in replay_window(g, stream, window=2.0):
            assert replay.apply_update(upd), f"invalid {upd}"

    def test_window_validation(self):
        with pytest.raises(ValueError):
            list(replay_window(DynamicDiGraph(), [], window=0.0))
