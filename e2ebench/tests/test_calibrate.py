import pytest

import calibrate


class FakeClock:
    """A clock that moves only when told; the kernel takes ``kernel_s``."""

    def __init__(self, monkeypatch) -> None:
        self.now = 100.0
        self.kernel_s = calibrate.NOMINAL_S
        monkeypatch.setattr(calibrate, "clock", lambda: self.now)
        monkeypatch.setattr(calibrate, "kernel", self._kernel)

    def _kernel(self) -> int:
        self.now += self.kernel_s
        return 0

    def wait(self, seconds: float) -> None:
        self.now += seconds


def test_nominal_speed_keeps_real_seconds(monkeypatch):
    fake = FakeClock(monkeypatch)
    line = calibrate.Timeline()
    line.tick()
    start = fake.now
    fake.wait(1.0)
    line.tick()
    assert line.span(start, fake.now - fake.kernel_s) == pytest.approx(1.0)
    assert line.speed() == pytest.approx(1.0)


def test_half_speed_halves_and_kernel_runs_count_zero(monkeypatch):
    fake = FakeClock(monkeypatch)
    fake.kernel_s = 2 * calibrate.NOMINAL_S
    line = calibrate.Timeline()
    line.tick()
    start = fake.now
    for _ in range(4):
        fake.wait(0.5)
        line.tick()
    end = fake.now
    fake.wait(0.5)
    line.tick()
    # Two seconds of work at half speed, with three kernel runs inside.
    assert line.span(start, end) == pytest.approx(1.0)
    assert line.speed() == pytest.approx(2.0)


def test_speed_follows_the_nearby_kernel_runs(monkeypatch):
    fake = FakeClock(monkeypatch)
    line = calibrate.Timeline()
    marks = []
    for kernel_s in (calibrate.NOMINAL_S, 2 * calibrate.NOMINAL_S):
        fake.kernel_s = kernel_s
        for _ in range(3):
            line.tick()
            marks.append(fake.now)
            fake.wait(1.0)
    line.tick()
    fast = line.span(marks[0], marks[0] + 1.0)
    slow = line.span(marks[-1], marks[-1] + 1.0)
    assert fast == pytest.approx(1.0)
    assert slow == pytest.approx(0.5)


def test_times_outside_the_kernel_runs_are_refused(monkeypatch):
    fake = FakeClock(monkeypatch)
    line = calibrate.Timeline()
    line.tick()
    fake.wait(1.0)
    line.tick()
    with pytest.raises(ValueError):
        line.span(fake.now - 2.0, fake.now)


def test_deferred_alarm_waits_for_poll(monkeypatch):
    FakeClock(monkeypatch)
    line = calibrate.Timeline()
    with line.deferred():
        line._on_alarm(None, None)
        assert line.starts == []
        line.poll()
        assert len(line.starts) == 1
        line._on_alarm(None, None)
    assert len(line.starts) == 2
    line._on_alarm(None, None)
    assert len(line.starts) == 3
