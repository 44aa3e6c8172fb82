"""Request lifecycle: deadlines and cooperative cancellation.

Analysis work is CPU-bound Python; it cannot be preempted, only asked
to stop. A :class:`Deadline` is therefore *checked*, never enforced:
the daemon calls :meth:`Deadline.check` at each lifecycle checkpoint
(dequeue, post-injection-delay, pre-analysis) and installs it as the
engine's ``checkpoint`` hook, which runs before every SCC and forward
procedure, so a request that runs past its budget unwinds within one
procedure's work — a bounded, small lag — rather than holding the
dispatcher hostage. The analysis it
abandons was all cache-backed idempotent work, so a retried request
simply resumes from the summaries already computed.

:class:`Cancelled` is the drain-time cousin: when the server is asked
to stop and the grace period runs out, the same hook raises
``Cancelled`` instead, and the client sees ``shutting_down`` rather
than ``deadline_expired`` — the request did nothing wrong.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.serve.protocol import Request


class DeadlineExpired(Exception):
    """A request ran past its deadline; ``stage`` names the checkpoint
    that noticed."""

    def __init__(self, stage: str):
        super().__init__(f"deadline expired at {stage}")
        self.stage = stage


class Cancelled(Exception):
    """The server is draining and this request's grace period is gone."""


class Deadline:
    """A monotonic-clock budget. ``seconds=None`` means unlimited."""

    __slots__ = ("expires_at",)

    def __init__(self, seconds: Optional[float]):
        self.expires_at = (
            time.monotonic() + seconds if seconds is not None else None
        )

    @classmethod
    def from_request(
        cls, request: Request, default_seconds: Optional[float]
    ) -> "Deadline":
        deadline_ms = request.params.get("deadline_ms")
        if deadline_ms is not None:
            return cls(float(deadline_ms) / 1000.0)
        return cls(default_seconds)

    def remaining(self) -> Optional[float]:
        if self.expires_at is None:
            return None
        return self.expires_at - time.monotonic()

    @property
    def expired(self) -> bool:
        remaining = self.remaining()
        return remaining is not None and remaining <= 0

    def check(self, stage: str = "request") -> None:
        if self.expired:
            raise DeadlineExpired(stage)


@dataclass
class Ticket:
    """One admitted request, from enqueue to response.

    ``respond`` is the connection's serialized writer; calling it more
    than once is a bug (the dispatcher owns the single response)."""

    request: Request
    deadline: Deadline
    respond: Callable[[dict], None]
    #: Correlation id stamped at admission (``r000001``, ...) — the
    #: request_id every log record, trace flow, and ring entry of this
    #: request carries.
    request_id: str = ""
    enqueued_at: float = field(default_factory=time.monotonic)

    def queue_seconds(self) -> float:
        return time.monotonic() - self.enqueued_at
