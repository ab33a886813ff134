"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Event, EventKind, EventQueue


class TestOrdering:
    def test_time_order(self):
        q = EventQueue()
        q.push(Event(10.0, EventKind.JOB_ARRIVAL, "late"))
        q.push(Event(5.0, EventKind.JOB_ARRIVAL, "early"))
        assert q.pop().payload == "early"
        assert q.pop().payload == "late"

    def test_priority_within_timestamp(self):
        q = EventQueue()
        q.push(Event(1.0, EventKind.SCHEDULING_ROUND))
        q.push(Event(1.0, EventKind.JOB_FINISH, ("j", 1)))
        q.push(Event(1.0, EventKind.JOB_ARRIVAL, "job"))
        kinds = [q.pop().kind for _ in range(3)]
        assert kinds == [
            EventKind.JOB_ARRIVAL,
            EventKind.JOB_FINISH,
            EventKind.SCHEDULING_ROUND,
        ]

    def test_fifo_among_equal(self):
        q = EventQueue()
        q.push(Event(1.0, EventKind.TASK_READY, "first"))
        q.push(Event(1.0, EventKind.TASK_READY, "second"))
        assert q.pop().payload == "first"
        assert q.pop().payload == "second"

    def test_len_and_bool(self):
        q = EventQueue()
        assert not q
        q.push(Event(3.0, EventKind.JOB_ARRIVAL))
        assert q
        assert len(q) == 1

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(Event(-1.0, EventKind.JOB_ARRIVAL))
