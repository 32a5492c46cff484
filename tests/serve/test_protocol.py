"""Unit tests for the NDJSON line protocol (:mod:`repro.serve.protocol`)."""

from __future__ import annotations

import pytest

from repro import wire
from repro.serve import protocol
from repro.serve.protocol import Submission

from tests.serve.conftest import small_spec


class TestFraming:
    def test_encode_decode_round_trip(self):
        msg = {"op": "ping", "seq": 3}
        assert protocol.decode(protocol.encode(msg)) == msg

    def test_encode_is_one_line(self):
        data = protocol.encode({"op": "status", "note": "a\nb"})
        assert data.endswith(b"\n")
        assert data.count(b"\n") == 1  # embedded newlines stay escaped

    def test_oversized_frame_refused(self):
        big = {"op": "submit", "blob": "x" * (protocol.MAX_LINE_BYTES + 1)}
        with pytest.raises(wire.WireError) as exc:
            protocol.encode(big)
        assert exc.value.code == wire.E_BAD_REQUEST

    def test_decode_rejects_non_utf8(self):
        with pytest.raises(wire.WireError):
            protocol.decode(b"\xff\xfe{}\n")

    def test_decode_rejects_non_json(self):
        with pytest.raises(wire.WireError):
            protocol.decode(b"not json\n")

    def test_decode_rejects_non_object(self):
        with pytest.raises(wire.WireError):
            protocol.decode(b"[1, 2]\n")


class TestConstructors:
    def test_ok_reply_echoes_seq(self):
        msg = protocol.ok_reply("submit", 42, ticket={"x": 1})
        assert msg == {"ok": True, "op": "submit", "seq": 42, "ticket": {"x": 1}}

    def test_error_reply_uses_stable_codes_only(self):
        msg = protocol.error_reply(wire.E_ADMISSION, "full", 1)
        assert msg["error"]["code"] == wire.E_ADMISSION
        with pytest.raises(AssertionError):
            protocol.error_reply("E_MADE_UP", "nope")

    def test_reply_error_extraction(self):
        assert protocol.reply_error(protocol.ok_reply("ping")) is None
        code, message = protocol.reply_error(
            protocol.error_reply(wire.E_DRAINING, "drain in progress")
        )
        assert code == wire.E_DRAINING
        assert "drain" in message

    def test_event_names_are_closed_set(self):
        msg = protocol.event_msg("state", 5, state="running")
        assert msg == {"event": "state", "job_id": 5, "state": "running"}
        with pytest.raises(AssertionError):
            protocol.event_msg("explode", 5)


class TestSubmission:
    def test_rejects_unknown_loader_opts(self):
        with pytest.raises(wire.WireError) as exc:
            Submission(
                app="pagerank", spec=small_spec(1), loader_opts={"mapping": 1}
            )
        assert exc.value.code == wire.E_BAD_REQUEST
        assert "mapping" in str(exc.value)

    def test_rejects_negative_priority(self):
        with pytest.raises(wire.WireError):
            Submission(app="pagerank", spec=small_spec(1), priority=-1)

    def test_rejects_empty_app(self):
        with pytest.raises(wire.WireError):
            Submission(app="", spec=small_spec(1))

    def test_loader_opts_values_must_be_scalars(self):
        doc = Submission(app="pagerank", spec=small_spec(1)).to_wire()
        doc["loader_opts"] = {"heap_bytes": [1, 2]}
        with pytest.raises(wire.WireError):
            Submission.from_wire(doc)

    @pytest.mark.parametrize(
        "opts",
        [
            {"pack": "x"},
            {"pack": 0},
            {"pack": True},
            {"heap_bytes": "x"},
            {"opt_level": 1.0},
            {"allow_races": 1},
            {"team_local_globals": "yes"},
        ],
    )
    def test_rejects_ill_typed_loader_opts(self, opts):
        """Checked at submit, so a bad value never reaches a worker."""
        with pytest.raises(wire.WireError) as exc:
            Submission(app="pagerank", spec=small_spec(1), loader_opts=opts)
        assert exc.value.code == wire.E_BAD_REQUEST
        assert next(iter(opts)) in str(exc.value)

    def test_pack_translates_to_mapping(self):
        from repro.host.mapping import OneInstancePerTeam, PackedMapping

        sub = Submission(
            app="pagerank", spec=small_spec(1), loader_opts={"pack": 2}
        )
        opts = sub.scheduler_loader_opts()
        assert isinstance(opts["mapping"], PackedMapping)
        assert "pack" not in opts

        plain = Submission(app="pagerank", spec=small_spec(1))
        assert isinstance(
            plain.scheduler_loader_opts()["mapping"], OneInstancePerTeam
        )
