"""Windowed proximity joins: predicates, eviction, errors, oracle equivalence."""

import random

import pytest

from swarmgrid.cep import (
    DRONE_RETENTION_MS,
    DroneLocEvent,
    MObsEvent,
    MOBS_RETENTION_MS,
    MatchKind,
    ProximityMatch,
    SObsEvent,
    SOBS_RETENTION_MS,
    WindowStore,
    _offsets,
    match_drone_drone,
    match_drone_moving,
    match_drone_static,
)


def d(i, cell, t=0):
    return DroneLocEvent(i, cell, t)


def test_retention_constants():
    assert DRONE_RETENTION_MS == 1_000
    assert MOBS_RETENTION_MS == 1_000
    assert SOBS_RETENTION_MS == 3_600_000


class TestPredicates:
    def test_drone_drone_box_with_shared_axis(self):
        a = d(1, (5, 5, 5))
        assert match_drone_drone(a, d(2, (7, 5, 5)))      # 2 away on x
        assert match_drone_drone(a, d(2, (7, 7, 5)))      # z shared
        assert not match_drone_drone(a, d(2, (6, 6, 6)))  # pure diagonal
        assert not match_drone_drone(a, d(2, (8, 5, 5)))  # outside the box
        assert not match_drone_drone(a, d(1, (5, 5, 6)))  # same drone

    def test_static_uses_the_tight_box(self):
        a = d(1, (5, 5, 5))
        assert match_drone_static(a, SObsEvent(9, (6, 5, 5)))
        assert match_drone_static(a, SObsEvent(9, (6, 6, 5)))
        assert not match_drone_static(a, SObsEvent(9, (7, 5, 5)))

    def test_moving_matches_at_radius_two(self):
        a = d(1, (5, 5, 5))
        assert match_drone_moving(a, MObsEvent(9, (7, 5, 3), 0))
        assert not match_drone_moving(a, MObsEvent(9, (7, 6, 4), 0))


def test_offset_counts():
    # All cells a box-plus-axis predicate can reach from the origin.
    assert len(_offsets(2)) == 61
    assert len(_offsets(1)) == 19
    assert all(dx == 0 or dy == 0 or dz == 0 for dx, dy, dz in _offsets(2))


def test_match_emitted_only_on_arrival():
    store = WindowStore()
    assert store.ingest(d(1, (0, 0, 0), 0), 0) == []
    got = store.ingest(d(2, (1, 0, 0), 0), 0)
    assert got == [
        ProximityMatch(MatchKind.DRONE_DRONE, 2, 1, (1, 0, 0), (0, 0, 0))
    ]
    # a third, far-away event does not re-report the live pair
    assert store.ingest(d(3, (9, 9, 9), 0), 0) == []


def test_drone_window_eviction():
    store = WindowStore()
    store.ingest(d(1, (0, 0, 0), 0), 0)
    # 1001 ms later the first location is stale
    assert store.ingest(d(2, (1, 0, 0), 1001), 1001) == []
    # exactly at the retention boundary it still counts
    store2 = WindowStore()
    store2.ingest(d(1, (0, 0, 0), 0), 0)
    assert len(store2.ingest(d(2, (1, 0, 0), 1000), 1000)) == 1


def test_static_knowledge_outlives_drone_window():
    store = WindowStore()
    store.ingest(SObsEvent(4, (3, 3, 3)), 0)
    got = store.ingest(d(1, (3, 3, 4), 500_000), 500_000)
    assert [m.kind for m in got] == [MatchKind.DRONE_STATIC]
    assert got[0].other_id == 4


def test_obstacle_arrival_joins_against_drones():
    store = WindowStore()
    store.ingest(d(7, (2, 2, 2), 0), 0)
    got = store.ingest(MObsEvent(1, (2, 4, 2), 10), 10)
    assert got == [
        ProximityMatch(MatchKind.DRONE_MOVING, 7, 1, (2, 2, 2), (2, 4, 2))
    ]


def test_rejects_future_events_and_unknown_types():
    store = WindowStore()
    with pytest.raises(ValueError):
        store.ingest(d(1, (0, 0, 0), t=500), 400)
    with pytest.raises(TypeError):
        store.ingest(object(), 0)


# -- brute-force oracle ------------------------------------------------------

def oracle_step(retained, event, now):
    """All matches the arriving event participates in, by exhaustive scan.

    `retained` holds (arrival_ms, event) tuples for everything previously
    ingested and not yet expired. Shares no code with the window store.
    """
    out = []
    def live(kind_retention, arrival):
        return now - arrival <= kind_retention
    if isinstance(event, DroneLocEvent):
        for arr, other in retained:
            if isinstance(other, DroneLocEvent) and live(DRONE_RETENTION_MS, arr):
                if match_drone_drone(event, other):
                    out.append((MatchKind.DRONE_DRONE, event.drone_id,
                                other.drone_id, event.cell, other.cell))
            elif isinstance(other, SObsEvent) and live(SOBS_RETENTION_MS, arr):
                if match_drone_static(event, other):
                    out.append((MatchKind.DRONE_STATIC, event.drone_id,
                                other.obstacle_id, event.cell, other.cell))
            elif isinstance(other, MObsEvent) and live(MOBS_RETENTION_MS, arr):
                if match_drone_moving(event, other):
                    out.append((MatchKind.DRONE_MOVING, event.drone_id,
                                other.obstacle_id, event.cell, other.cell))
    else:
        for arr, other in retained:
            if not isinstance(other, DroneLocEvent):
                continue
            if not live(DRONE_RETENTION_MS, arr):
                continue
            if isinstance(event, SObsEvent) and match_drone_static(other, event):
                out.append((MatchKind.DRONE_STATIC, other.drone_id,
                            event.obstacle_id, other.cell, event.cell))
            if isinstance(event, MObsEvent) and match_drone_moving(other, event):
                out.append((MatchKind.DRONE_MOVING, other.drone_id,
                            event.obstacle_id, other.cell, event.cell))
    return out


def random_event(rng, now):
    cell = (rng.randrange(6), rng.randrange(6), rng.randrange(6))
    roll = rng.random()
    if roll < 0.70:
        return DroneLocEvent(rng.randrange(8), cell, now)
    if roll < 0.85:
        return SObsEvent(rng.randrange(4), cell)
    return MObsEvent(rng.randrange(6), cell, now)


def run_sequence(seed, n_events):
    rng = random.Random(seed)
    store = WindowStore()
    retained = []
    now = 0
    for _ in range(n_events):
        now += rng.randrange(0, 80)
        event = random_event(rng, now)
        got = store.ingest(event, now)
        expect = oracle_step(retained, event, now)
        got_keys = sorted(
            (m.kind.value, m.subject_id, m.other_id, m.subject_cell, m.other_cell)
            for m in got
        )
        expect_keys = sorted((k.value, s, o, sc, oc) for k, s, o, sc, oc in expect)
        assert got_keys == expect_keys, f"divergence at t={now}: {event}"
        retained.append((now, event))


def test_oracle_equivalence_smoke():
    for seed in range(10):
        run_sequence(seed, 300)
