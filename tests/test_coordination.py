"""Cell lock table and seeded arbitration."""

import random

import pytest

from swarmgrid.coordination import LockTable, NotHolder, arbitrate


def test_acquire_release_cycle():
    t = LockTable()
    assert t.try_acquire(1, (0, 0, 0))
    assert t.holder((0, 0, 0)) == 1
    assert not t.try_acquire(2, (0, 0, 0))
    t.release(1, (0, 0, 0))
    assert t.holder((0, 0, 0)) is None
    assert t.try_acquire(2, (0, 0, 0))


def test_reacquire_own_cell_is_a_noop_success():
    t = LockTable()
    assert t.try_acquire(1, (1, 1, 1))
    assert t.try_acquire(1, (1, 1, 1))
    assert t.holder((1, 1, 1)) == 1
    t.release(1, (1, 1, 1))
    assert t.holder((1, 1, 1)) is None


def test_release_requires_holding():
    t = LockTable()
    t.try_acquire(1, (0, 0, 0))
    with pytest.raises(NotHolder):
        t.release(2, (0, 0, 0))
    with pytest.raises(NotHolder):
        t.release(1, (9, 9, 9))


def test_arbitrate_single_winner_per_cell():
    cell = (3, 3, 3)
    winners = set()
    for seed in range(40):
        t = LockTable()
        result = arbitrate(
            t, [(1, cell), (2, cell), (3, cell)], random.Random(seed)
        )
        got = [d for d, ok in result.items() if ok]
        assert len(got) == 1
        assert t.holder(cell) == got[0]
        winners.add(got[0])
    # random priority: over many seeds everyone wins sometimes
    assert winners == {1, 2, 3}


def test_arbitrate_rejects_duplicate_requests():
    with pytest.raises(ValueError):
        arbitrate(LockTable(), [(1, (0, 0, 0)), (1, (1, 0, 0))], random.Random(0))


def test_arbitrate_deterministic_under_seed():
    reqs = [(i, (i % 3, 0, 0)) for i in range(9)]
    a = arbitrate(LockTable(), list(reqs), random.Random(42))
    b = arbitrate(LockTable(), list(reqs), random.Random(42))
    assert a == b


def test_randomized_operations_never_double_hold():
    """Shadow-model check over a mixed op stream (a short version of the
    million-op acceptance run)."""
    rng = random.Random(2024)
    t = LockTable()
    model: dict[tuple, int] = {}
    cells = [(x, y, 0) for x in range(4) for y in range(4)]
    for _ in range(20_000):
        drone = rng.randrange(6)
        cell = rng.choice(cells)
        if rng.random() < 0.6:
            ok = t.try_acquire(drone, cell)
            expected = model.get(cell) in (None, drone)
            assert ok == expected
            if ok:
                model[cell] = drone
        else:
            if model.get(cell) == drone:
                t.release(drone, cell)
                del model[cell]
            else:
                with pytest.raises(NotHolder):
                    t.release(drone, cell)
        assert t.holder(cell) == model.get(cell)


def test_holder_follows_acquire_and_release():
    t = LockTable()
    cells = [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
    assert [t.holder(c) for c in cells] == [None] * 3
    assert t.try_acquire(1, cells[0]) and t.try_acquire(2, cells[1])
    assert [t.holder(c) for c in cells] == [1, 2, None]
    t.release(1, cells[0])
    assert t.try_acquire(3, cells[2])
    assert [t.holder(c) for c in cells] == [None, 2, 3]


def test_holder_reads_what_a_patched_acquire_writes(monkeypatch):
    """`holder` is the table's dict's own `get`, so it must see what any
    `try_acquire` writes there, such as the hand-over patch in
    `test_tick_state_oracle.py`."""

    def hand_over(self, drone_id, cell):
        self._holders[cell] = drone_id
        return True

    t = LockTable()
    assert t.try_acquire(1, (0, 0, 0))
    monkeypatch.setattr(LockTable, "try_acquire", hand_over)
    assert t.try_acquire(2, (0, 0, 0))
    assert t.holder((0, 0, 0)) == 2
