"""Property tests of the frame decoder: hostile bytes never escape as anything
but a valid frame or a typed :class:`FrameError`.

Every input is fed to :func:`read_frame` over a socketpair whose writer has
already closed, so a read can only finish: a frame, a clean EOF (``None``)
or a ``FrameError``.  Bodies go through :func:`decode_body` the same way.
"""

import json
import math
import socket
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve.transport import (
    _HEADER,
    _KNOWN_KINDS,
    _WIRE_DTYPES,
    FRAME_ERROR_CODES,
    KIND_REQUEST,
    PROTOCOL_MAGIC,
    PROTOCOL_VERSION,
    FrameError,
    decode_body,
    encode_body,
    read_frame,
)

MAX_FRAME = 4096
FUZZ = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _read_all(data: bytes, max_frame_bytes: int = MAX_FRAME) -> list:
    """Every outcome of reading ``data`` until EOF or the first FrameError."""
    a, b = socket.socketpair()
    try:
        a.sendall(data)
        a.shutdown(socket.SHUT_WR)
        outcomes = []
        while True:
            try:
                frame = read_frame(b, max_frame_bytes)
            except FrameError as exc:
                assert exc.code in FRAME_ERROR_CODES
                return outcomes + [exc]
            if frame is None:
                return outcomes
            kind, meta, body = frame
            assert kind in _KNOWN_KINDS
            assert isinstance(meta, dict) and isinstance(body, bytes)
            outcomes.append(frame)
    finally:
        a.close()
        b.close()


def _decode(meta: dict, body: bytes):
    """``decode_body``'s outcome: arrays, or the ``bad-payload`` error."""
    try:
        arrays = decode_body(meta, body)
    except FrameError as exc:
        assert exc.code == "bad-payload"
        return exc
    assert all(isinstance(name, str) for name in arrays)
    assert all(value.dtype.str in _WIRE_DTYPES and value.flags.writeable for value in arrays.values())
    return arrays


def _frame(kind: int, meta: bytes, body: bytes, magic=PROTOCOL_MAGIC, version=PROTOCOL_VERSION):
    return _HEADER.pack(magic, version, kind, len(meta), len(body)) + meta + body


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
arrays = st.sampled_from(
    [
        np.arange(6, dtype=np.float32).reshape(2, 3),
        np.array([True, False]),
        np.zeros((1, 1, 2, 2), dtype=np.float64),
        np.array(7, dtype=np.int64),
        np.empty((0, 3), dtype=np.int16),
        np.asfortranarray(np.arange(6, dtype=np.uint16).reshape(2, 3)),
    ]
)
dtype_codes = st.sampled_from(sorted(_WIRE_DTYPES)) | st.sampled_from(
    ["|O", "|V8", ">f4", ">i8", "<c16", "<M8[s]", "float32", "f4", ""]
) | st.text(max_size=6)
dims = st.integers(0, 4) | st.integers(-2, 2**70) | st.booleans() | st.floats(0, 4)


@st.composite
def array_table(draw):
    """Arbitrary ``[name, code, shape]`` entries and a body near their size."""
    table = draw(
        st.lists(
            st.tuples(st.text(max_size=4), dtype_codes, st.lists(dims, max_size=4)).map(list),
            max_size=3,
        )
    )
    size = 0
    for _, code, shape in table:
        if code in _WIRE_DTYPES and all(type(d) is int and 0 <= d <= 4 for d in shape):
            size += int(np.prod(shape)) * _WIRE_DTYPES[code].itemsize
    return table, draw(st.binary(min_size=size, max_size=size)) + draw(st.binary(max_size=3))


@st.composite
def valid_body(draw):
    """A well-formed ``encode_body`` payload and its metadata."""
    named = draw(st.dictionaries(st.text(min_size=1, max_size=4), arrays, max_size=3))
    meta = {"id": draw(st.integers(0, 99))}
    return meta, encode_body(meta, **named)


@st.composite
def frame_stream(draw):
    """Arbitrary bytes, mangled headers, and valid frames cut anywhere."""
    choice = draw(st.sampled_from(["raw", "header", "valid", "truncated"]))
    if choice == "raw":
        return draw(st.binary(max_size=512))
    if choice == "header":
        return _HEADER.pack(
            draw(st.sampled_from([PROTOCOL_MAGIC, b"EVIL"])),
            draw(st.sampled_from([PROTOCOL_VERSION, 0, 255])),
            draw(st.integers(0, 255)),
            draw(st.integers(0, 2**32 - 1)),
            draw(st.integers(0, 2**64 - 1)),
        ) + draw(st.binary(max_size=256))
    meta, body = draw(valid_body())
    meta["extra"] = draw(json_values)
    data = _frame(draw(st.sampled_from(_KNOWN_KINDS)), json.dumps(meta).encode(), body)
    data *= draw(st.integers(1, 3))
    if choice == "truncated":
        data = data[: draw(st.integers(0, len(data)))]
    return data


class TestReadFrameFuzz:
    @FUZZ
    @given(data=frame_stream())
    def test_arbitrary_bytes_give_frames_or_frame_errors(self, data):
        outcomes = _read_all(data)
        for outcome in outcomes:
            if isinstance(outcome, tuple):
                _, meta, body = outcome
                if "arrays" in meta:
                    _decode(meta, body)

    @FUZZ
    @given(meta=json_values, body=st.binary(max_size=64))
    def test_any_json_metadata_round_trips(self, meta, body):
        data = _frame(KIND_REQUEST, json.dumps(meta).encode(), body)
        (outcome,) = _read_all(data, max_frame_bytes=2**20)
        if isinstance(meta, dict):
            assert outcome == (KIND_REQUEST, meta, body)
        else:
            assert outcome.code == "bad-payload"

    @pytest.mark.parametrize(
        "meta",
        [
            b"[" * 5000,  # nesting past the JSON parser's recursion limit
            b'{"id": ' + b"1" * 5000 + b"}",  # integer literal past the digit limit
            b"\xff\xfe",  # not UTF-8
        ],
        ids=["deep-nesting", "long-integer", "not-utf8"],
    )
    def test_unparseable_metadata_is_bad_payload(self, meta):
        (outcome,) = _read_all(_frame(KIND_REQUEST, meta, b""), max_frame_bytes=2**20)
        assert isinstance(outcome, FrameError) and outcome.code == "bad-payload"

    @pytest.mark.parametrize(
        "meta_len, body_len",
        [(MAX_FRAME + 1, 0), (0, MAX_FRAME + 1), (2**32 - 1, 0), (0, 2**64 - 1), (MAX_FRAME, 1)],
    )
    def test_oversized_declaration_refused_before_allocation(self, meta_len, body_len):
        header = _HEADER.pack(PROTOCOL_MAGIC, PROTOCOL_VERSION, KIND_REQUEST, meta_len, body_len)
        tracemalloc.start()
        try:
            (outcome,) = _read_all(header + b"x" * 64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert isinstance(outcome, FrameError) and outcome.code == "oversized"
        assert peak < 64 * 1024


class TestDecodeBodyFuzz:
    @FUZZ
    @given(table=json_values, body=st.binary(max_size=256))
    def test_arbitrary_tables_and_bodies(self, table, body):
        _decode({"arrays": table}, body)

    @FUZZ
    @given(case=array_table())
    def test_arbitrary_codes_shapes_and_names(self, case):
        table, body = case
        arrays = _decode({"arrays": table}, body)
        if isinstance(arrays, dict):  # a decoded table accounts for every byte
            declared = [math.prod(shape) * _WIRE_DTYPES[code].itemsize for _, code, shape in table]
            assert sum(declared) == len(body)

    @FUZZ
    @given(case=valid_body(), data=st.data())
    def test_mutated_and_truncated_segments(self, case, data):
        meta, body = case
        assert isinstance(_decode(meta, body), dict)  # the unmutated body decodes
        if body:
            where = data.draw(st.integers(0, len(body) - 1))
            flipped = body[:where] + bytes([body[where] ^ data.draw(st.integers(1, 255))]) + body[where + 1 :]
            _decode(meta, flipped)
        cut = data.draw(st.integers(0, len(body)))
        outcome = _decode(meta, body[:cut])
        assert isinstance(outcome, dict) == (cut == len(body))
        assert isinstance(_decode(meta, body + b"\0"), FrameError)  # longer than its table

    def test_valid_segments_round_trip_writable(self):
        meta = {}
        x = np.arange(12, dtype=np.float32).reshape(3, 4)
        arrays = decode_body(meta, encode_body(meta, x=x, f=np.asfortranarray(x)))
        for value in arrays.values():
            np.testing.assert_array_equal(value, x)
            assert value.flags.writeable

    def test_object_segment_is_refused(self):
        with pytest.raises(ValueError):
            encode_body({}, x=np.array([{"a": 1}], dtype=object))
        with pytest.raises(FrameError) as err:
            decode_body({"arrays": [["x", "|O", [1]]]}, b"\0" * 8)
        assert err.value.code == "bad-payload"

    def test_short_segment_declaring_huge_shape_refused_before_allocation(self):
        # An 8-byte body whose table claims 2**25 float64 values (256 MiB).
        tracemalloc.start()
        try:
            with pytest.raises(FrameError) as err:
                decode_body({"arrays": [["x", "<f8", [2**25]]]}, b"\0" * 8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert err.value.code == "bad-payload"
        assert peak < 1024 * 1024
