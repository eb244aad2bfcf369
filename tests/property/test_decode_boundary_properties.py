"""Property-based tests: the decode boundaries never fail untyped.

Whatever bytes or JSON arrive, :meth:`WireCodec.decode`,
:func:`persist.loads`, :func:`load_state` and :func:`load_checkpoint`
each return a valid value or raise a :class:`~repro.errors.ReproError`
the service maps to a response code -- never a raw ``RecursionError``,
``KeyError``, ``TypeError``, ``AttributeError`` or ``UnicodeDecodeError``.
"""

import copy
import json
import random
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.dlr import DLR
from repro.core.params import DLRParams
from repro.errors import CheckpointError, ParameterError, ReproError, WireFormatError
from repro.groups import preset_group
from repro.runtime.checkpoint import (
    SessionState,
    dump_state,
    load_checkpoint,
    load_state,
)
from repro.utils import persist
from repro.utils.serialization import WireCodec

GROUP = preset_group(16)
PARAMS = DLRParams(group=GROUP, lam=16)
GENERATION = DLR(PARAMS).generate(random.Random(5))
STATE = dump_state(
    SessionState(
        scheme="dlr", seed=1, periods_total=4, next_period=1,
        public_key=GENERATION.public_key, share1=GENERATION.share1,
        share2=GENERATION.share2,
    )
)

COMMON = dict(max_examples=150, deadline=None)

#: Key names the loaders look up, so generated objects reach past the
#: first lookup as often as they miss it.
KEYS = st.sampled_from(
    ["kind", "data", "params", "version", "n", "p", "q", "h", "lam", "z",
     "a", "b", "phi", "s", "items", "scheme", "seed", "periods_total",
     "next_period", "public_key", "share1", "share2"]
) | st.text(max_size=6)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=16,
)

KINDS = st.sampled_from(
    ["public_key", "share1", "share2", "ciphertext", "ciphertext_batch", "other"]
)
envelopes = st.builds(
    lambda kind, data: json.dumps({"kind": kind, "data": data}), KINDS, json_values
)

#: Every path into a valid checkpoint, to overwrite with junk.
def _paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, prefix + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _paths(item, prefix + (index,))


STATE_PATHS = [path for path in _paths(STATE) if path]


def _mutated(path, value):
    data = copy.deepcopy(STATE)
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return data


mutated_states = st.builds(_mutated, st.sampled_from(STATE_PATHS), json_values)

DEEP_TUPLES = b"\x07\x01" * 5000 + b"\x00"
DEEP_JSON = "[" * 100_000 + "]" * 100_000


class TestWireCodecDecode:
    @given(data=st.binary(max_size=256))
    @example(data=DEEP_TUPLES)
    @example(data=b"\x04\x02\xff\xfe")
    @settings(**COMMON)
    def test_valid_value_or_typed_error(self, data):
        try:
            WireCodec(GROUP).decode(data)
        except ReproError:
            pass

    def test_nesting_and_bad_utf8_are_wire_format_errors(self):
        for data in (DEEP_TUPLES, b"\x04\x02\xff\xfe"):
            try:
                WireCodec(GROUP).decode(data)
            except WireFormatError:
                continue
            raise AssertionError(f"{data[:8]!r} decoded")


class TestPersistLoads:
    @given(text=st.text(max_size=64) | envelopes)
    @example(text=DEEP_JSON)
    @example(text='{"kind": "public_key", "data": {}}')
    @example(text='{"kind": "share1", "data": {"a": 5}}')
    @example(text='{"kind": "share2", "data": {"s": [], "p": 5}}')
    @example(
        text=json.dumps(
            {"kind": "public_key", "data": {**STATE["public_key"], "params": {
                **STATE["public_key"]["params"], "p": "not-hex"}}}
        )
    )
    @settings(**COMMON)
    def test_valid_value_or_typed_error(self, text):
        try:
            persist.loads(text, GROUP)
        except ReproError:
            pass

    def test_listed_payloads_are_parameter_errors(self):
        for text in (
            DEEP_JSON,
            '{"kind": "public_key", "data": {}}',
            '{"kind": "share1", "data": {"a": 5}}',
            '{"kind": "share2", "data": {"s": [], "p": 5}}',
        ):
            try:
                persist.loads(text, GROUP)
            except ParameterError:
                continue
            raise AssertionError(f"{text[:40]!r} loaded")


class TestCheckpointLoaders:
    @given(data=mutated_states | json_values)
    @example(data=_mutated(("share1", "a"), [5]))
    @example(data=_mutated(("public_key", "z"), 5))
    @settings(**COMMON)
    def test_load_state_valid_value_or_typed_error(self, data):
        try:
            assert isinstance(load_state(data), SessionState)
        except ReproError:
            pass

    def test_wrong_shapes_are_checkpoint_errors(self):
        for data in (_mutated(("share1", "a"), [5]), _mutated(("public_key", "z"), 5)):
            try:
                load_state(data)
            except CheckpointError:
                continue
            raise AssertionError("malformed state loaded")

    @given(raw=st.binary(max_size=128) | mutated_states.map(
        lambda data: json.dumps(data).encode("utf-8")
    ))
    @example(raw=DEEP_JSON.encode("ascii"))
    @settings(max_examples=60, deadline=None)
    def test_load_checkpoint_valid_value_or_typed_error(self, raw):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "session.json"
            path.write_bytes(raw)
            try:
                assert isinstance(load_checkpoint(path), SessionState)
            except ReproError:
                pass

    def test_deep_json_is_checkpoint_error(self, tmp_path):
        path = tmp_path / "session.json"
        path.write_text(DEEP_JSON)
        try:
            load_checkpoint(path)
        except CheckpointError:
            return
        raise AssertionError("deep JSON loaded")
