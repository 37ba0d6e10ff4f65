"""A single-thread open-loop load generator that does not hide coordinated omission.

Request ``k`` of a segment is due at ``start + k / rate``.  The schedule
is fixed when the segment starts and never re-based after a stall: a
late generator sends every overdue request at once.  Each request's
latency runs from when it was due, not from when it was sent, so a
stall is charged to every request it delayed.  The generator's own
lateness (sent - due) is kept per request.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from statistics import median

from repro.serving import Overloaded, TicketState

from measure import LATENCY_LIMIT_S

#: Longest wait for a segment's last tickets after its last send.
DRAIN_S = 30.0

#: Backlog growth across a rung, in requests, that fails the rung.  One
#: request is within the fluctuation of a near-capacity rung of ~14
#: requests; an overloaded rung grows by three or more.
MAX_GROWTH = 2.0

#: Share of a rung's requests that must finish correctly on time.
MIN_ON_TIME = 0.95


@dataclass
class Request:
    """One scheduled request and what became of it."""

    index: int
    due: float
    sent: float
    ticket: object = None
    done: float | None = None
    outcome: str = "pending"

    def finished(self, _ticket) -> None:
        self.done = time.perf_counter()

    @property
    def latency(self) -> float:
        """Seconds from due to a correct result; ``inf`` otherwise."""
        if self.outcome != "ok":
            return math.inf
        return self.done - self.due


@dataclass
class Segment:
    """One fixed-rate stretch of the schedule."""

    rate: float
    requests: list[Request] = field(default_factory=list)
    #: Requests sent but not finished, sampled at each send.
    outstanding: list[int] = field(default_factory=list)

    def count(self, outcome: str) -> int:
        return sum(1 for r in self.requests if r.outcome == outcome)

    @property
    def on_time(self) -> int:
        """Correct results within the latency limit."""
        return sum(1 for r in self.requests if r.latency <= LATENCY_LIMIT_S)

    @property
    def growth(self) -> float:
        """Mean backlog over the last third of sends minus the first third."""
        third = len(self.outstanding) // 3
        if third == 0:
            return 0.0
        head = self.outstanding[:third]
        tail = self.outstanding[-third:]
        return sum(tail) / third - sum(head) / third

    @property
    def passed(self) -> bool:
        """Enough on-time results and no backlog building up."""
        return (
            self.on_time >= MIN_ON_TIME * len(self.requests)
            and self.growth <= MAX_GROWTH
        )

    def completion_rate(self) -> float:
        """Correct completions per second, first to last completion."""
        times = sorted(r.done for r in self.requests if r.outcome == "ok")
        if len(times) < 2 or times[-1] <= times[0]:
            return 0.0
        return (len(times) - 1) / (times[-1] - times[0])

    @property
    def failures(self) -> int:
        """Requests refused, expired, failed or answered wrongly."""
        return len(self.requests) - self.count("ok")

    def describe(self) -> str:
        lat = [r.latency for r in self.requests]
        p50 = 1000.0 * median(lat) if lat else math.nan
        return (
            f"rung {self.rate:.3f} rps: sent {len(self.requests)}, "
            f"on time {self.on_time}, shed {self.count('shed')}, "
            f"timed out {self.count('timed_out')}, failed {self.count('failed')}, "
            f"wrong {self.count('wrong')}, p50 {p50:.1f} ms, "
            f"backlog growth {self.growth:.2f} -> {'pass' if self.passed else 'fail'}"
        )


def drive(engine, inputs, checker, rate: float, seconds: float, first: int) -> Segment:
    """Send ``rate * seconds`` requests on schedule, then collect them.

    ``first`` numbers the segment's first request in the seeded input
    order.  Every completed response is checked against the bare
    runtime after the segment, outside the timed path.
    """
    segment = Segment(rate)
    total = max(1, int(round(rate * seconds)))
    start = time.perf_counter()
    for k in range(total):
        due = start + k / rate
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        segment.outstanding.append(
            sum(1 for r in segment.requests if r.ticket is not None and r.done is None)
        )
        index = inputs.pick(first + k)
        request = Request(index, due, time.perf_counter())
        try:
            ticket = engine.submit(inputs.feeds[index], deadline_s=LATENCY_LIMIT_S)
        except Overloaded:
            request.outcome = "shed"
            request.done = request.sent
        else:
            request.ticket = ticket
            ticket.add_done_callback(request.finished)
        segment.requests.append(request)
    settle(segment, checker)
    return segment


def settle(segment: Segment, checker) -> None:
    """Wait for every ticket of ``segment`` and classify its outcome."""
    deadline = time.monotonic() + DRAIN_S
    for request in segment.requests:
        ticket = request.ticket
        if ticket is None:
            continue
        try:
            error = ticket.exception(timeout=max(0.0, deadline - time.monotonic()))
        except TimeoutError:
            request.outcome = "failed"
            continue
        # The ticket's event fires just before its callbacks run.
        while request.done is None:
            time.sleep(0.0002)
        if ticket.state is TicketState.TIMED_OUT:
            request.outcome = "timed_out"
        elif error is not None:
            request.outcome = "failed"
        elif checker.correct(request.index, ticket.result()):
            request.outcome = "ok"
        else:
            request.outcome = "wrong"
