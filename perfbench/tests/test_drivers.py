"""Open-loop due-time accounting."""

from perfbench.drivers import latencies, open_loop


class FakeTime:
    def __init__(self):
        self.now = 100.0

    def clock(self):
        return self.now

    def sleep(self, dt):
        self.now += dt


def test_stalled_request_charges_the_requests_behind_it():
    """Request 1 stalls the sender for 0.5 s.  Requests 2-4 are due at
    0.2-0.4 s but go out at 0.6 s; their latency counts from when they
    were due, so the stall shows in every one of them."""
    t = FakeTime()
    dues = [0.0, 0.1, 0.2, 0.3, 0.4, 1.0]
    service = 0.01
    due_abs, done = {}, {}

    def submit(i, target):
        due_abs[i] = target
        if i == 1:
            t.now += 0.5            # the stall
        done[i] = t.now + service   # answered right after it is sent

    start, lags = open_loop(dues, submit, clock=t.clock, sleep=t.sleep)
    lat = latencies(due_abs, done)

    assert start == 100.0
    for got, want in zip(lags, [0.0, 0.0, 0.4, 0.3, 0.2, 0.0]):
        assert abs(got - want) < 1e-9
    assert abs(lat[0] - service) < 1e-9
    assert abs(lat[1] - (0.5 + service)) < 1e-9
    for i, lag in ((2, 0.4), (3, 0.3), (4, 0.2)):
        assert abs(lat[i] - (lag + service)) < 1e-9
    # sent on time again once the backlog is gone
    assert abs(lat[5] - service) < 1e-9


def test_on_time_sender_never_sleeps_past_the_due_time():
    t = FakeTime()
    sent = []
    open_loop([0.25, 0.5], lambda i, target: sent.append((i, t.now, target)),
              clock=t.clock, sleep=t.sleep)
    assert [(i, now - 100.0) for i, now, _ in sent] == [(0, 0.25), (1, 0.5)]
