import pytest

from benchmarks.suite.loadgen import OpenLoop


class FakeTime:
    """A clock that only moves when someone sleeps or works."""

    def __init__(self):
        self.now = 100.0
        self.sleeps = []

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


def test_requests_are_sent_at_their_due_times_when_the_system_keeps_up():
    time = FakeTime()
    loop = OpenLoop(rate=10.0, count=4, clock=time.clock, sleep=time.sleep)
    sent = []

    def operation(index):
        sent.append(time.now)
        time.now += 0.03  # served well within the 0.1 s period

    loop.run(operation)
    assert sent == pytest.approx([100.0, 100.1, 100.2, 100.3])
    assert loop.late == pytest.approx([0.0] * 4)
    assert loop.latency == pytest.approx([0.03] * 4)
    assert time.sleeps == pytest.approx([0.07] * 3)


def test_a_stall_is_charged_to_the_requests_it_delays():
    time = FakeTime()
    loop = OpenLoop(rate=10.0, count=5, clock=time.clock, sleep=time.sleep)
    service = [0.01, 0.35, 0.01, 0.01, 0.01]  # request 1 stalls

    def operation(index):
        time.now += service[index]

    loop.run(operation)
    # due at +0.0 .. +0.4; the stall ends at +0.45
    assert loop.late == pytest.approx([0.0, 0.0, 0.25, 0.16, 0.07])
    # latency counts from the due time, not from the late send
    assert loop.latency == pytest.approx([0.01, 0.35, 0.26, 0.17, 0.08])
    # the generator never sleeps while it is behind schedule
    assert len(time.sleeps) == 1


def test_rate_must_be_positive():
    with pytest.raises(ValueError):
        OpenLoop(rate=0, count=1)
