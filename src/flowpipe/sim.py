"""Deterministic seeded discrete-event simulator: integer-tick scheduler,
partially synchronous message delivery (bounded delay post-GST, configurable
drop/delay before), per-node clock skew, and a replayable event log."""

from __future__ import annotations

import heapq
import json
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from . import crypto
from .encoding import canonical_text


@dataclass(frozen=True)
class SimConfig:
    """Network model and run horizon; scenario.DEFAULTS holds the defaults
    of its `network` fields and of `run.max_sim_time`."""

    delta_t: int  # max post-GST delivery delay, ticks
    phi_t: float  # max relative clock-rate factor, >= 1
    gst: int
    pre_gst_drop_probability: float
    pre_gst_delay_multiplier: int
    seed: bytes
    max_sim_time: int

    def __post_init__(self):
        if self.delta_t <= 0:
            raise ValueError("delta_t must be positive")
        if self.phi_t < 1:
            raise ValueError("phi_t must be at least 1")
        if self.gst < 0:
            raise ValueError("gst must be non-negative")
        if not 0.0 <= self.pre_gst_drop_probability <= 1.0:
            raise ValueError("drop probability must lie in [0, 1]")


class EventLog:
    """Totally ordered run record; identical for identical (scenario, seed).

    Each record is kept only as its canonical JSON line, encoded once on
    `append` with `canonical_text`; its keys sort as kind, node, payload,
    t. The lines are packed into text blocks of about `BLOCK_LINES`, so no
    object is kept per record; `select` and `records` decode on demand."""

    BLOCK_LINES = 1024

    def __init__(self):
        self._blocks: list[str] = []  # each a run of whole lines
        self._tail: list[str] = []  # lines not yet packed into a block
        self._heads: dict[tuple[str, str], str] = {}  # (kind, node) -> line head

    def append(self, t: int, node: str, kind: str, payload: dict) -> None:
        head = self._heads.get((kind, node))
        if head is None:
            head = self._heads[(kind, node)] = _line_start(kind, node) + '"payload":'
        tail = self._tail
        tail.append(f'{head}{canonical_text(payload)},"t":{t}}}\n')
        if len(tail) == self.BLOCK_LINES:
            self._blocks.append("".join(tail))
            tail.clear()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_jsonl())

    def to_jsonl(self) -> str:
        """The whole log as text; it becomes the log's only block, so the
        packed blocks and the text are never held together after the call."""
        text = "".join(self._blocks + self._tail)
        self._blocks = [text] if text else []
        self._tail = []
        return text

    def digest(self) -> bytes:
        return crypto.hash("eventlog", self.to_jsonl().encode())

    def select(self, kind: str, node: Optional[str] = None) -> list[dict]:
        """The records of `kind` (and of `node`, if given), in log order;
        only the lines with that canonical prefix are decoded."""
        start = _line_start(kind, node)
        return [
            json.loads(line)
            for block in self._blocks + self._tail
            for line in _lines_starting(block, start)
        ]

    @property
    def records(self) -> list[dict]:
        """Every record, decoded afresh. A canonical line is ASCII with
        control characters escaped, so only its newline splits it."""
        return [json.loads(line) for block in self._blocks + self._tail for line in block.splitlines()]


def _lines_starting(block: str, start: str) -> list[str]:
    """The lines of `block`, a run of whole lines, that begin with `start`."""
    found = []
    if block.startswith(start):
        found.append(block[: block.index("\n")])
    needle = "\n" + start
    i = block.find(needle)
    while i != -1:
        end = block.index("\n", i + 1)
        found.append(block[i + 1 : end])
        i = block.find(needle, end)
    return found


def _line_start(kind: str, node: Optional[str] = None) -> str:
    """The start of the canonical line of every record of `kind` (and of
    `node`, if given)."""
    start = f'{{"kind":{canonical_text(kind)},"node":'
    return start if node is None else f"{start}{canonical_text(node)},"


Handler = Callable[[str, Any], None]  # (sender_name, message)


class Simulator:
    """Single-threaded event loop over a calendar queue: `_buckets` maps a
    tick to its `(fn, args)` entries, and the heap `_ticks` holds each tick
    with a bucket once. The golden logs rely on the order: entries run by
    (tick, queue order), as a (time, sequence) heap would run them, so a
    `schedule(0, ...)` made inside a tick runs later in that same tick. A
    callback that raises ends `run`, and the rest of its tick is dropped."""

    def __init__(self, config: SimConfig):
        self.config = config
        self.now = 0
        self.log = EventLog()
        self._buckets: defaultdict[int, list[tuple[Callable[..., None], tuple]]] = defaultdict(list)
        self._ticks: list[int] = []
        self._gst = config.gst
        self._delta_t = config.delta_t
        self._handlers: dict[str, Handler] = {}
        self._skew: dict[str, float] = {}
        self._net_stream = crypto.seeded_stream(crypto.derive_seed(["net"], config.seed))
        self._skew_stream = crypto.seeded_stream(crypto.derive_seed(["skew"], config.seed))
        self.dropped = 0
        self.delivered = 0

    # -- topology ----------------------------------------------------------

    def register_node(self, name: str, handler: Handler) -> None:
        if name in self._handlers:
            raise ValueError(f"duplicate node name: {name}")
        self._handlers[name] = handler
        span = self.config.phi_t - 1.0
        self._skew[name] = 1.0 + span * self._skew_stream.next_unit()

    # -- scheduling --------------------------------------------------------

    def schedule(self, delay: int, fn: Callable[[], None]) -> None:
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        t = self.now + delay
        bucket = self._buckets[t]
        if not bucket:
            heapq.heappush(self._ticks, t)
        bucket.append((fn, ()))

    def set_timer(self, node: str, duration: int, fn: Callable[[], None]) -> None:
        """Node-local timer, dilated by the node's clock skew."""
        dilated = max(1, round(duration * self._skew[node]))
        self.schedule(dilated, fn)

    def send(self, sender: str, receiver: str, message: Any) -> None:
        handler = self._handlers.get(receiver)
        if handler is None:
            raise ValueError(f"unknown receiver: {receiver}")
        bound = self._delta_t
        if self.now < self._gst:
            if self._net_stream.next_unit() < self.config.pre_gst_drop_probability:
                self.dropped += 1
                return
            bound *= self.config.pre_gst_delay_multiplier
        t = self.now + 1 + self._net_stream.next_below(bound)
        bucket = self._buckets[t]
        if not bucket:
            heapq.heappush(self._ticks, t)
        bucket.append((handler, (sender, message)))

    # -- run loop ----------------------------------------------------------

    def run(self, until: Optional[int] = None) -> None:
        horizon = self.config.max_sim_time if until is None else until
        ticks, buckets = self._ticks, self._buckets
        while ticks and ticks[0] <= horizon:
            t = heapq.heappop(ticks)
            self.now = t
            delivered = 0  # a delivery's args are (sender, message), a timer's ()
            for fn, args in buckets.pop(t):
                if args:
                    delivered += 1
                fn(*args)
            self.delivered += delivered
        self.now = max(self.now, min(horizon, ticks[0]) if ticks else horizon)

    def event(self, node: str, kind: str, payload: dict) -> None:
        """Log `payload`, a dict of JSON values (str keys; lists, not
        tuples), as it stands now: the log encodes it at once."""
        self.log.append(self.now, node, kind, payload)


@dataclass
class Metrics:
    """Run outputs; `scenario.run_world` derives them from the event log."""

    blocks_finalized: int = 0
    blocks_sealed: int = 0
    collections_guaranteed: int = 0
    challenges: int = 0
    slashes: int = 0
    finalization_latencies: list[int] = field(default_factory=list)

    def rows(self) -> list[tuple[str, float]]:
        """The reported metrics as (name, value) pairs, in report order."""
        lat = self.finalization_latencies
        return [
            ("blocks_finalized", self.blocks_finalized),
            ("blocks_sealed", self.blocks_sealed),
            ("collections_guaranteed", self.collections_guaranteed),
            ("challenges", self.challenges),
            ("slashes", self.slashes),
            ("mean_finalization_latency", sum(lat) / len(lat) if lat else 0),
            ("max_finalization_latency", max(lat) if lat else 0),
        ]

    def to_csv(self) -> str:
        return "metric,value\n" + "\n".join(f"{k},{v}" for k, v in self.rows()) + "\n"
