"""The shared canonical encoder against `json.dumps` with the same settings,
and the event log when a payload cannot be encoded."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from flowpipe.encoding import canonical_json, canonical_text
from flowpipe.sim import EventLog


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# any code point, lone surrogates and control characters included, plus a few
# strings that need escapes
texts = hs.text(hs.characters(exclude_categories=())) | hs.sampled_from(
    ["", "café ✓ 𝄞", "\x00\x01\x1f\x7f", '"\\/\b\f\n\r\t', "  𐏿"]
)
big_ints = hs.integers(min_value=2**64, max_value=2**300) | hs.integers(
    min_value=-(2**300), max_value=-(2**64)
)
scalars = hs.none() | hs.booleans() | hs.integers() | big_ints | hs.floats() | texts
values = hs.recursive(
    scalars,
    lambda children: hs.lists(children, max_size=5)
    | hs.lists(children, max_size=3).map(tuple)
    | hs.dictionaries(texts, children, max_size=5)
    | hs.dictionaries(hs.integers(), children, max_size=3),
    max_leaves=40,
)


class TestSharedEncoder:
    @settings(max_examples=300, deadline=None)
    @given(values)
    @example({"b": [1, 2.5, None, True], "a": {"é": "\x00", "z": 2**64 + 1}})
    @example([float("nan"), float("inf"), -float("inf"), -0.0, 1e300])
    def test_equals_json_dumps(self, obj):
        want = dumps(obj)
        assert canonical_text(obj) == want
        assert canonical_json(obj) == want.encode()

    def test_unencodable_value_raises_type_error(self):
        for bad in (b"\x00", {1, 2}, object(), {"a": [1, bytearray()]}):
            with pytest.raises(TypeError):
                canonical_json(bad)


class TestEventLogAppend:
    @pytest.mark.parametrize(
        "payload",
        [{"a": b"\x00"}, {"a": {1, 2}}, {"a": [1, object()]}, {"x": 1.5, "y": {"z": bytearray()}}],
        ids=["bytes", "set", "object-in-list", "nested"],
    )
    def test_unencodable_payload_raises_and_leaves_log_unchanged(self, payload):
        log = EventLog()
        lines = []
        for t in range(EventLog.BLOCK_LINES - 1):
            log.append(t, "n0", "k", {"v": t})
            lines.append(f'{{"kind":"k","node":"n0","payload":{{"v":{t}}},"t":{t}}}\n')
        with pytest.raises(TypeError):
            log.append(10**6, "n1", "bad", payload)
        # the failed append left no line behind, so this one fills the block
        log.append(10**6, "n1", "bad", {"ok": True})
        lines.append('{"kind":"bad","node":"n1","payload":{"ok":true},"t":1000000}\n')
        before = log.to_jsonl()
        assert before == "".join(lines)
        with pytest.raises(TypeError):
            log.append(10**6 + 1, "n1", "bad", payload)
        assert log.to_jsonl() == before
