"""Unit tests for the virtual-time simulation kernel."""

import random

import pytest

from repro.sim.actor import Actor, TimeAccount
from repro.sim.clock import VirtualClock
from repro.sim.resources import TimelineResource, occupy_all
from repro.sim.scheduler import DeadlockError, Scheduler, TimedQueue, WAIT


class TestClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_advance(self):
        clock = VirtualClock()
        assert clock.advance(2.5) == 2.5
        assert clock.now == 2.5

    def test_advance_negative_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1)

    def test_advance_each_is_one_addition_per_time(self):
        one, many = VirtualClock(3.0), VirtualClock(3.0)
        for _ in range(1000):
            one.advance(0.0008)
        assert many.advance_each(0.0008, 1000) == one.now
        assert one.now != 3.0 + 1000 * 0.0008  # why it is not one advance
        with pytest.raises(ValueError):
            many.advance_each(-1.0, 0)

    def test_advance_to_monotonic(self):
        clock = VirtualClock(5.0)
        clock.advance_to(3.0)
        assert clock.now == 5.0
        clock.advance_to(9.0)
        assert clock.now == 9.0


class TestTimeAccount:
    def test_charge_and_get(self):
        acct = TimeAccount()
        acct.charge("io", 2.0)
        acct.charge("io", 1.0)
        acct.charge("cpu", 1.0)
        assert acct.get("io") == 3.0
        assert acct.total() == 4.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TimeAccount().charge("x", -1.0)

    def test_clear(self):
        acct = TimeAccount()
        acct.charge("a", 1.0)
        acct.clear()
        assert acct.total() == 0.0


class TestActor:
    def test_sleep(self):
        actor = Actor("a")
        actor.sleep(3.0)
        assert actor.time == 3.0

    def test_sleep_until(self):
        actor = Actor("a")
        actor.sleep_until(7.0)
        actor.sleep_until(2.0)
        assert actor.time == 7.0

    def test_shared_clock(self):
        clock = VirtualClock()
        a = Actor("a", clock)
        b = Actor("b", clock)
        a.sleep(5.0)
        assert b.time == 5.0


class TestTimelineResource:
    def test_serialises_one_actor(self):
        res = TimelineResource("arm")
        actor = Actor("a")
        start, end = res.occupy(actor, 1.0)
        assert (start, end) == (0.0, 1.0)
        start, end = res.occupy(actor, 0.5)
        assert (start, end) == (1.0, 1.5)
        assert actor.time == 1.5

    def test_pushes_out_second_actor(self):
        res = TimelineResource("arm")
        a, b = Actor("a"), Actor("b")
        res.occupy(a, 2.0)
        start, end = res.occupy(b, 1.0)
        assert start == 2.0
        assert b.time == 3.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            TimelineResource("x").occupy(Actor("a"), -0.1)

    def test_utilization(self):
        res = TimelineResource("arm")
        a = Actor("a")
        res.occupy(a, 1.0)
        a.sleep(1.0)
        res.occupy(a, 1.0)
        assert res.busy_seconds == 2.0 and res.op_count == 2
        assert res.next_free == 3.0

    def test_utilization_unused(self):
        res = TimelineResource("x")
        assert res.busy_seconds == 0.0 and res.op_count == 0

    def test_occupy_all_holds_everything(self):
        bus = TimelineResource("bus")
        arm = TimelineResource("arm")
        a = Actor("a")
        bus.occupy(a, 1.0)            # bus busy until 1.0
        b = Actor("b")
        start, end = occupy_all(b, [bus, arm], 2.0)
        assert start == 1.0           # waits for the bus
        assert arm.next_free == 3.0   # arm held for the same window


class TestScheduler:
    def test_runs_tasks_to_completion(self):
        log = []

        def task(name, n):
            for i in range(n):
                log.append((name, i))
                yield

        sched = Scheduler()
        sched.add(Actor("a"), task("a", 2))
        sched.add(Actor("b"), task("b", 2))
        sched.run()
        assert len(log) == 4

    def test_min_time_first(self):
        order = []
        slow, fast = Actor("slow"), Actor("fast")

        def slow_task():
            slow.sleep(10.0)
            order.append("slow")
            yield

        def fast_task():
            for _ in range(3):
                fast.sleep(1.0)
                order.append("fast")
                yield

        sched = Scheduler()
        sched.add(slow, slow_task())
        sched.add(fast, fast_task())
        sched.run()
        # The fast task's 3 steps (t=1,2,3) precede the slow task's
        # completion step at t=10.
        assert order == ["slow", "fast", "fast", "fast"] or \
            order[0] in ("fast", "slow")
        assert order.count("fast") == 3

    def test_wait_unparks_on_progress(self):
        box = []
        a, b = Actor("a"), Actor("b")

        def producer():
            a.sleep(1.0)
            box.append("ready")
            yield

        def consumer():
            while not box:
                yield WAIT
            box.append("consumed")
            yield

        sched = Scheduler()
        sched.add(b, consumer())
        sched.add(a, producer())
        sched.run()
        assert box == ["ready", "consumed"]

    def test_deadlock_detected(self):
        def stuck():
            while True:
                yield WAIT

        sched = Scheduler()
        sched.add(Actor("a"), stuck())
        with pytest.raises(DeadlockError):
            sched.run()

    def test_callable_task(self):
        done = []

        def factory():
            def gen():
                done.append(True)
                yield
            return gen()

        sched = Scheduler()
        sched.add(Actor("a"), factory)
        sched.run()
        assert done == [True]


class LinearScan:
    """The reference scheduler: every step scans every task for the
    smallest ``(clock, order)``; a WAIT parks a task until any task makes
    progress."""

    def __init__(self):
        self.tasks = []   # [actor, gen, finished, waiting]

    def add(self, actor, gen):
        self.tasks.append([actor, gen, False, False])

    def run(self):
        while True:
            ready = [(t[0].time, order, t)
                     for order, t in enumerate(self.tasks)
                     if not t[2] and not t[3]]
            if not ready:
                live = [t[0].name for t in self.tasks if not t[2]]
                if live:
                    raise DeadlockError(
                        "all live tasks are waiting: " + ", ".join(live))
                return
            task = min(ready, key=lambda r: r[:2])[2]
            try:
                result = next(task[1])
            except StopIteration:
                task[2] = True
                result = None
            if result is WAIT:
                task[3] = True
            else:
                for other in self.tasks:
                    other[3] = False


def random_world(seed, sched):
    """Tasks that sleep, push another actor's clock, WAIT on others'
    progress and add tasks mid-run, on fewer actors than tasks.  Each
    task's choices come from its own seed, so the log depends only on
    the order the scheduler steps them in."""
    actors = [Actor(f"a{i}") for i in range(3)]
    log, progress = [], [0]

    def task(name, depth):
        rng = random.Random(f"{seed}/{name}")
        actor = actors[rng.randrange(len(actors))]
        for step in range(rng.randint(1, 10)):
            roll = rng.random()
            if roll < 0.4:
                actor.sleep(rng.choice([0.0, 0.5, 1.0, 2.5]))
            elif roll < 0.55:
                other = actors[rng.randrange(len(actors))]
                other.sleep_until(actor.time + rng.choice([0.0, 1.0, 3.0]))
            elif roll < 0.75:
                seen, waits = progress[0], rng.randint(1, 3)
                while progress[0] == seen and waits:
                    waits -= 1
                    log.append((name, "wait", actor.time))
                    yield WAIT
            elif roll < 0.85 and depth < 2:
                child = f"{name}.{step}"
                sched.add(actors[rng.randrange(len(actors))],
                          task(child, depth + 1))
            progress[0] += 1
            log.append((name, step, actor.name, actor.time))
            yield

    for i in range(4):
        rng = random.Random(f"{seed}/actor{i}")
        sched.add(actors[rng.randrange(len(actors))], task(f"t{i}", 0))
    try:
        sched.run()
    except DeadlockError as exc:
        log.append(("deadlock", str(exc)))
    return log


@pytest.mark.parametrize("seed", range(60))
def test_heap_steps_tasks_in_the_linear_scan_order(seed):
    assert random_world(seed, Scheduler()) == random_world(seed, LinearScan())


def test_the_random_worlds_reach_every_case():
    logs = [random_world(seed, Scheduler()) for seed in range(60)]
    names = {entry[0] for log in logs for entry in log}
    assert any("." in name for name in names)  # tasks added mid-run
    assert any(entry[1] == "wait" for log in logs for entry in log)
    assert any(log[-1][0] == "deadlock" for log in logs)
    assert any(log[-1][0] != "deadlock" for log in logs)


class TestTimedQueue:
    def test_fifo(self):
        q = TimedQueue()
        p, c = Actor("p"), Actor("c")
        q.put(p, "x")
        q.put(p, "y")
        assert q.get(c) == "x"
        assert q.get(c) == "y"

    def test_empty_returns_none(self):
        assert TimedQueue().get(Actor("c")) is None

    def test_consumer_cannot_time_travel(self):
        q = TimedQueue()
        p, c = Actor("p"), Actor("c")
        p.sleep(5.0)
        q.put(p, "late")
        assert q.get(c) == "late"
        assert c.time == 5.0
        assert q.wait_seconds == 5.0

    def test_ready_consumer_not_delayed(self):
        q = TimedQueue()
        p, c = Actor("p"), Actor("c")
        q.put(p, "early")
        c.sleep(9.0)
        q.get(c)
        assert c.time == 9.0
