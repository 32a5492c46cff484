"""The ``repro.serve`` line protocol: newline-delimited JSON messages.

Transport is a byte stream (TCP or a unix socket); framing is one JSON
object per ``\\n``-terminated line, UTF-8, at most
:data:`MAX_LINE_BYTES` per line.  Three message shapes flow:

* **Requests** (client → server): ``{"op": <name>, ...}``.  An optional
  ``seq`` (any JSON value) is echoed verbatim on the matching reply so
  clients can pipeline.
* **Replies** (server → client): ``{"ok": true, "op": <echo>, ...}`` or
  ``{"ok": false, "error": {"code": <stable>, "message": ...}}``.  Every
  request gets exactly one reply, in request order per connection.
* **Events** (server → client, unsolicited): ``{"event": <name>,
  "job_id": N, ...}`` streamed to connections subscribed to a job (the
  submitting connection is subscribed automatically).

Payload value types (:class:`Submission`, ``LaunchSpec``, ``JobTicket``,
``JobResult``...) are the versioned wire documents of :mod:`repro.wire`;
error codes come from :data:`repro.wire.ERROR_CODES`.  The full protocol
narrative lives in docs/serve.md.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro import wire
from repro.host.launch import LaunchSpec

#: Protocol revision; carried in the server's greeting and every reply
#: is implicitly at this revision.  Bumps follow the wire schema policy.
PROTOCOL_VERSION = 1

#: Upper bound on one framed line; a submission of ~100k small instances
#: fits with room to spare, while an unframed stream cannot wedge the
#: server into buffering without bound.
MAX_LINE_BYTES = 8 * 1024 * 1024

#: Every request op the server implements.
OPS = (
    "submit",
    "status",
    "watch",
    "cancel",
    "metrics",
    "drain",
    "ping",
)

#: Job lifecycle / terminal events a subscriber receives, in order:
#: ``state`` on every transition, then exactly one of ``result`` /
#: ``failed`` / ``cancelled``.
EVENTS = ("state", "result", "failed", "cancelled", "drained")

#: ``loader_opts`` keys a submission may carry — the serializable subset
#: of :class:`~repro.host.ensemble_loader.EnsembleLoader` options.
#: ``pack`` (instances per team, the CLI's ``--pack M``) is translated
#: server-side into the mapping object.
LOADER_OPT_KEYS = frozenset(
    {"heap_bytes", "allow_races", "team_local_globals", "opt_level", "pack"}
)

#: ``loader_opts`` keys whose values must be ints (a bool is not one);
#: the other keys take bools.  The loader checks the ranges, except
#: ``pack``'s, which never reaches it as a number.
_INT_LOADER_OPTS = frozenset({"heap_bytes", "opt_level", "pack"})


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------
def encode(msg: dict) -> bytes:
    """Frame one message: compact JSON + newline."""
    line = json.dumps(msg, separators=(",", ":")) + "\n"
    data = line.encode("utf-8")
    if len(data) > MAX_LINE_BYTES:
        raise wire.WireError(
            f"message of {len(data)} bytes exceeds the "
            f"{MAX_LINE_BYTES}-byte frame limit",
            code=wire.E_BAD_REQUEST,
        )
    return data


def decode(line: bytes | str) -> dict:
    """Parse one framed line into a message object."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise wire.WireError(f"message is not UTF-8: {exc}") from None
    try:
        msg = json.loads(line)
    except json.JSONDecodeError as exc:
        raise wire.WireError(f"message is not valid JSON: {exc}") from None
    if not isinstance(msg, dict):
        raise wire.WireError(
            f"message must be a JSON object, got {type(msg).__name__}"
        )
    return msg


# ---------------------------------------------------------------------------
# reply / event constructors
# ---------------------------------------------------------------------------
def ok_reply(op: str, seq: Any = None, **fields) -> dict:
    """A successful reply for ``op``, echoing ``seq`` when given."""
    msg: dict = {"ok": True, "op": op}
    if seq is not None:
        msg["seq"] = seq
    msg.update(fields)
    return msg


def error_reply(code: str, message: str, seq: Any = None) -> dict:
    """A failed reply carrying one stable error code from ERROR_CODES."""
    assert code in wire.ERROR_CODES, code
    msg: dict = {"ok": False, "error": {"code": code, "message": message}}
    if seq is not None:
        msg["seq"] = seq
    return msg


def event_msg(event: str, job_id: int | None = None, **fields) -> dict:
    """An unsolicited event message, optionally scoped to one job."""
    assert event in EVENTS, event
    msg: dict = {"event": event}
    if job_id is not None:
        msg["job_id"] = job_id
    msg.update(fields)
    return msg


def reply_error(msg: dict) -> tuple[str, str] | None:
    """Extract ``(code, message)`` from a failed reply, else None."""
    if msg.get("ok", False):
        return None
    err = msg.get("error")
    if not isinstance(err, dict):
        return (wire.E_INTERNAL, "malformed error reply")
    return (
        str(err.get("code", wire.E_INTERNAL)),
        str(err.get("message", "")),
    )


# ---------------------------------------------------------------------------
# the submission document
# ---------------------------------------------------------------------------
@dataclass
class Submission:
    """One campaign crossing the wire: *what* to run and *as whom*.

    Mirrors :meth:`repro.sched.Scheduler.submit`'s shape — ``app`` stands
    in for the live ``program`` object (the server compiles from its own
    registry), ``spec`` / ``retries`` / ``step_budget`` / ``loader_opts``
    carry over unchanged, and ``tenant`` / ``priority`` name the
    fair-share identity that a local submit does not need.
    """

    app: str
    spec: LaunchSpec
    tenant: str = "anonymous"
    #: Larger priority = larger fair-share weight for this tenant's
    #: stream (see docs/serve.md); 0 is the baseline.
    priority: int = 0
    retries: int | None = None
    step_budget: int | None = None
    loader_opts: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        unknown = set(self.loader_opts) - LOADER_OPT_KEYS
        if unknown:
            allowed = ", ".join(sorted(LOADER_OPT_KEYS))
            raise wire.WireError(
                f"Submission: unsupported loader_opts "
                f"{sorted(unknown)} (allowed: {allowed})",
                code=wire.E_BAD_REQUEST,
            )
        for key, value in self.loader_opts.items():
            if key in _INT_LOADER_OPTS:
                ok = isinstance(value, int) and not isinstance(value, bool)
                want = "an int"
            else:
                ok = isinstance(value, bool)
                want = "a bool"
            if not ok:
                raise wire.WireError(
                    f"Submission: loader_opts[{key!r}] must be {want}, "
                    f"got {value!r}",
                    code=wire.E_BAD_REQUEST,
                )
        if self.loader_opts.get("pack", 1) < 1:
            raise wire.WireError(
                "Submission: loader_opts['pack'] must be >= 1",
                code=wire.E_BAD_REQUEST,
            )
        if self.priority < 0:
            raise wire.WireError(
                "Submission: priority must be >= 0",
                code=wire.E_BAD_REQUEST,
            )
        if not self.app:
            raise wire.WireError(
                "Submission: app must be a non-empty registry name",
                code=wire.E_BAD_REQUEST,
            )

    def scheduler_loader_opts(self) -> dict:
        """``loader_opts`` translated for the live EnsembleLoader:
        ``pack`` becomes the concrete mapping object."""
        from repro.host.mapping import OneInstancePerTeam, PackedMapping

        opts = dict(self.loader_opts)
        pack = opts.pop("pack", 1)
        opts["mapping"] = (
            PackedMapping(pack) if pack > 1 else OneInstancePerTeam()
        )
        return opts

    # -- wire shape ---------------------------------------------------------
    def to_wire(self) -> dict:
        data = wire.envelope("Submission")
        data.update(
            app=self.app,
            spec=self.spec.to_wire(),
            tenant=self.tenant,
            priority=self.priority,
            retries=self.retries,
            step_budget=self.step_budget,
            loader_opts=dict(self.loader_opts),
        )
        return data

    @classmethod
    def from_wire(cls, data) -> "Submission":
        wire.check_envelope(data, "Submission")
        kind = "Submission"
        opts = wire.get_field(data, "loader_opts", dict, {}, kind=kind)
        for key, value in opts.items():
            if not isinstance(key, str):
                raise wire.WireError(f"{kind}: loader_opts keys must be strings")
            if not isinstance(value, (bool, int, str)) and value is not None:
                raise wire.WireError(
                    f"{kind}: loader_opts[{key!r}] must be a JSON scalar"
                )
        return cls(
            app=wire.get_field(data, "app", str, kind=kind),
            spec=LaunchSpec.from_wire(
                wire.get_field(data, "spec", dict, kind=kind)
            ),
            tenant=wire.get_field(data, "tenant", str, "anonymous", kind=kind),
            priority=wire.get_field(data, "priority", int, 0, kind=kind),
            retries=wire.get_field(data, "retries", int, None, kind=kind),
            step_budget=wire.get_field(
                data, "step_budget", int, None, kind=kind
            ),
            loader_opts=dict(opts),
        )


__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "OPS",
    "EVENTS",
    "LOADER_OPT_KEYS",
    "Submission",
    "encode",
    "decode",
    "ok_reply",
    "error_reply",
    "event_msg",
    "reply_error",
]
