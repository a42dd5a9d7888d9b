"""Tests for the streaming service's wire format (framing + chunks)."""

from __future__ import annotations

import io
import json
import struct

import numpy as np
import pytest

from repro.serve.protocol import (
    ProtocolError,
    decode_chunk,
    encode_chunk,
    pack_frame,
    read_frame_sync,
    write_frame_sync,
)
from repro.trace.event import make_events


def _events(rng, n=100):
    return make_events(
        ip=rng.integers(0, 16, n),
        addr=rng.integers(0, 1 << 20, n),
        cls=rng.choice([0, 1, 2], n).astype(np.uint8),
    )


class TestFraming:
    def test_round_trip(self):
        header = {"type": "open", "session": "s", "n": 3}
        payload = b"\x00\x01binary\xff"
        fp = io.BytesIO(pack_frame(header, payload))
        got_header, got_payload = read_frame_sync(fp)
        assert got_header == header
        assert got_payload == payload

    def test_empty_payload(self):
        fp = io.BytesIO(pack_frame({"type": "ping"}))
        header, payload = read_frame_sync(fp)
        assert header == {"type": "ping"}
        assert payload == b""

    def test_write_frame_sync_matches_pack(self):
        fp = io.BytesIO()
        write_frame_sync(fp, {"type": "ok"}, b"xy")
        assert fp.getvalue() == pack_frame({"type": "ok"}, b"xy")

    def test_header_is_canonical_json(self):
        blob = pack_frame({"b": 1, "a": 2, "type": "t"})
        json_len = struct.unpack("!II", blob[:8])[0]
        header_bytes = blob[8 : 8 + json_len]
        assert header_bytes == json.dumps(
            {"a": 2, "b": 1, "type": "t"}, sort_keys=True, separators=(",", ":")
        ).encode()

    def test_clean_close_raises_eoferror(self):
        with pytest.raises(EOFError):
            read_frame_sync(io.BytesIO(b""))

    def test_mid_frame_close_raises_protocol_error(self):
        blob = pack_frame({"type": "x"}, b"payload")
        with pytest.raises(ProtocolError, match="mid-frame"):
            read_frame_sync(io.BytesIO(blob[:-3]))

    def test_oversized_frame_rejected_before_read(self):
        blob = pack_frame({"type": "x"}, b"y" * 1000)
        with pytest.raises(ProtocolError, match="exceeds"):
            read_frame_sync(io.BytesIO(blob), max_bytes=100)

    def test_garbage_header_rejected(self):
        bad = struct.pack("!II", 4, 0) + b"{{{{"
        with pytest.raises(ProtocolError, match="unparsable"):
            read_frame_sync(io.BytesIO(bad))

    def test_header_must_carry_type(self):
        bad = pack_frame({"type": "x"})  # build a frame, then rewrite header
        blob = json.dumps({"no_type": 1}).encode()
        bad = struct.pack("!II", len(blob), 0) + blob
        with pytest.raises(ProtocolError, match="'type'"):
            read_frame_sync(io.BytesIO(bad))

    def test_empty_header_rejected(self):
        with pytest.raises(ProtocolError, match="empty header"):
            read_frame_sync(io.BytesIO(struct.pack("!II", 0, 0)))


class TestChunkCodec:
    def test_round_trip_with_sample_ids(self, rng):
        ev = _events(rng)
        sid = np.sort(rng.integers(0, 5, len(ev))).astype(np.int32)
        fields, payload = encode_chunk(ev, sid)
        got_ev, got_sid = decode_chunk({"type": "append", **fields}, payload)
        assert np.array_equal(got_ev, ev)
        assert np.array_equal(got_sid, sid)

    def test_round_trip_without_sample_ids(self, rng):
        ev = _events(rng)
        fields, payload = encode_chunk(ev, None)
        got_ev, got_sid = decode_chunk({"type": "append", **fields}, payload)
        assert np.array_equal(got_ev, ev)
        assert got_sid is None

    def test_survives_a_socket_frame(self, rng):
        """The codec composes with framing: arrays cross as raw bytes."""
        ev = _events(rng, 257)
        sid = np.arange(257, dtype=np.int32) // 64
        fields, payload = encode_chunk(ev, sid)
        fp = io.BytesIO(pack_frame({"type": "append", **fields}, payload))
        header, got_payload = read_frame_sync(fp)
        got_ev, got_sid = decode_chunk(header, got_payload)
        assert np.array_equal(got_ev, ev)
        assert np.array_equal(got_sid, sid)

    def test_wrong_dtype_rejected(self):
        with pytest.raises(TypeError):
            encode_chunk(np.zeros(4), None)

    def test_sid_length_mismatch_rejected(self, rng):
        ev = _events(rng, 10)
        with pytest.raises(ValueError):
            encode_chunk(ev, np.zeros(9, dtype=np.int32))

    def test_payload_geometry_validated(self, rng):
        ev = _events(rng, 10)
        fields, payload = encode_chunk(ev, None)
        with pytest.raises(ProtocolError, match="geometry"):
            decode_chunk({"type": "append", **fields}, payload[:-1])

    def test_negative_event_count_rejected(self):
        with pytest.raises(ProtocolError):
            decode_chunk({"type": "append", "n_events": -1, "n_sid": None}, b"")

    def test_out_of_range_load_class_rejected(self, rng):
        ev = _events(rng, 10).copy()
        ev["cls"][6] = 7
        fields, payload = encode_chunk(ev, np.arange(10, dtype=np.int32))
        with pytest.raises(ProtocolError, match="record 6 has load-class code 7"):
            decode_chunk({"type": "append", **fields}, payload)
