"""Spans recorded from outside the program, by wrapping layer entry points.

Each entry point is replaced at the module (or dict) through which its caller
looks it up, so nothing inside ``percolab`` changes. A span's self time is its
duration minus the time covered by the spans nested inside it. ``restore``
puts every original object back.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field


def cpu_seconds() -> float:
    """User plus system CPU of this process and of its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    cpu_s: float = 0.0  # only for spans wrapped with cpu=True
    work: list | None = None  # per-call work counts, summed element-wise
    first_start: float | None = None  # time.monotonic() at the first call
    durations: list = field(default_factory=list)


class Tracer:
    """Wraps callables, aggregates spans by name, and restores the originals."""

    def __init__(self, keep_durations=()):
        self.stats: dict[str, SpanStats] = {}
        self._keep = set(keep_durations)
        self._stack: list[list] = []  # [name, start, child_s]
        self._patched: list[tuple] = []

    def wrap(self, owner, key, name, work=None, skip_under=(), cpu=False):
        """Replace ``owner.key`` (or ``owner[key]`` for a dict) by a span.

        ``work(args, kwargs, result)`` returns a tuple of counts, summed
        element-wise per name. Calls made directly inside a span named in
        ``skip_under`` pass through untraced, so their time stays with that
        parent. With ``cpu`` the span also sums CPU time, counting worker
        processes that the call started and joined.
        """
        is_dict = isinstance(owner, dict)
        original = owner[key] if is_dict else getattr(owner, key)
        stats = self.stats.setdefault(name, SpanStats())
        keep = name in self._keep
        stack = self._stack

        def span(*args, **kwargs):
            if stack and stack[-1][0] in skip_under:
                return original(*args, **kwargs)
            if stats.first_start is None:
                stats.first_start = time.monotonic()
            cpu0 = cpu_seconds() if cpu else 0.0
            frame = [name, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                dur = time.perf_counter() - frame[1]
                stats.calls += 1
                stats.total_s += dur
                stats.self_s += dur - frame[2]
                if cpu:
                    stats.cpu_s += cpu_seconds() - cpu0
                if keep:
                    stats.durations.append(dur)
                if stack:
                    stack[-1][2] += dur
            if work is not None:
                counts = work(args, kwargs, result)
                if stats.work is None:
                    stats.work = [0] * len(counts)
                for i, c in enumerate(counts):
                    stats.work[i] += c
            return result

        if is_dict:
            owner[key] = span
        else:
            setattr(owner, key, span)
        self._patched.append((owner, key, original, is_dict))

    def restore(self) -> None:
        while self._patched:
            owner, key, original, is_dict = self._patched.pop()
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)
