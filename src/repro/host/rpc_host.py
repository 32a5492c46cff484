"""Host RPC endpoint.

Services the device's ``rpc`` instructions (generated from calls to
host-only functions by the RPC-lowering pass).  Two transports exist:

* **direct** — the interpreter invokes :meth:`RPCHost.handle` synchronously
  (the timing model charges each RPC a large fixed latency);
* **ring** — the transport-faithful path over a ring buffer in device
  memory (:mod:`repro.runtime.rpc_device`), drained by a real background
  thread, mirroring the RPC service thread in Figure 2 of the paper
  (:class:`repro.host.transport.RingTransport`).

Both apply injected ``rpc.reply`` faults through one rule,
:func:`reply_with_faults`, once the reply is in hand: on the host for the
direct transport, on the device side of the ring for the ring.

Output capture: ``printf``/``puts`` bytes are captured **per application
instance**, so an ensemble run can return each instance its own stdout —
the host-side counterpart of instance isolation.

Observability: per-service call totals are published into a
:class:`~repro.obs.MetricsRegistry` (``rpc.calls{service=...}``), with
the historical ``call_counts`` dict kept as a read view over it; an
enabled tracer records each call as an instant event on the ``rpc-host``
track (the RPC service thread of Figure 2).
"""

from __future__ import annotations

import re
import time
from collections import defaultdict
from typing import Callable

from repro.errors import DeviceTrap, RPCError
from repro.faults.injector import NO_FAULTS, InjectedRPCFailure, InstanceFault
from repro.gpu.memory import GlobalMemory
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.runtime.interpreter import RpcLane

_FMT_RE = re.compile(r"%[-+ #0]*\d*(?:\.\d+)?(?:hh|h|ll|l|z)?[diufeEgGxXscp%]")

#: Track RPC-host events are recorded on (one track for the service thread).
RPC_TRACK = "rpc-host"


def reply_with_faults(faults, service: str, lane: RpcLane, result, redeliver: Callable):
    """The ``rpc.reply`` injection point, shared by both transports.

    ``result`` is the reply the host already produced for the call;
    ``redeliver()`` delivers the same request once more and returns its
    reply.  A fired fault drops the reply (the whole launch fails
    transiently; the scheduler's retry machinery recovers it), times it
    out for this caller only (a per-instance fault), delivers the request
    twice (side effects repeat), or flips one byte of an integer reply.
    """
    if not faults.enabled:
        return result
    fault = faults.fire(
        "rpc.reply", service=service, instance=lane.instance, team=lane.team
    )
    if fault is None:
        return result
    ctx = dict(service=service, instance=lane.instance, team=lane.team)
    if fault.kind == "rpc_drop":
        raise InjectedRPCFailure(fault, **ctx)
    if fault.kind == "rpc_timeout":
        raise InstanceFault(fault, **ctx)
    if fault.kind == "rpc_dup":
        return redeliver()
    if fault.kind == "transport_corrupt" and isinstance(result, int):
        return result ^ (0xFF << (8 * fault.byte))
    return result


class RPCHost:
    """Dispatch table + output capture for device-originated calls."""

    def __init__(
        self,
        memory: GlobalMemory,
        *,
        tracer=None,
        metrics: MetricsRegistry | None = None,
        faults=None,
    ):
        self.memory = memory
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Fault hook for the ``rpc.reply`` injection point.  Only the
        #: direct transport wires this up — the ring transport applies the
        #: same rule at its device-side endpoint instead, so one RPC is
        #: never double-fired (see :class:`repro.host.transport.RingTransport`).
        self.faults = faults if faults is not None else NO_FAULTS
        self.stdout: dict[int, list[str]] = defaultdict(list)
        self._files: dict[int, object] = {}
        self._next_handle = 3  # 0/1/2 reserved like stdio
        self._handlers = {
            "printf": self._printf,
            "puts": self._puts,
            "putchar": self._putchar,
            "fopen": self._fopen,
            "fclose": self._fclose,
            "fputs": self._fputs,
            "host_time_ns": self._host_time_ns,
            "abort": self._abort,
        }

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def register(self, service: str, handler) -> None:
        """Install a custom handler: ``handler(args, lane) -> value``."""
        self._handlers[service] = handler

    @property
    def call_counts(self) -> dict[str, int]:
        """Per-service call totals — a read view over the metrics
        registry's ``rpc.calls`` counters (the former ad-hoc dict)."""
        return {
            dict(c.labels)["service"]: int(c.value)
            for c in self.metrics.series("rpc.calls")
        }

    def handle(self, service: str, args: list, lane: RpcLane):
        fn = self._handlers.get(service)
        if fn is None:
            raise RPCError(f"no host handler for RPC service {service!r}")
        self.metrics.counter("rpc.calls", service=service).inc()
        if self.tracer.enabled:
            self.tracer.instant(
                f"rpc {service}",
                track=RPC_TRACK,
                cat="rpc",
                args={"instance": lane.instance, "team": lane.team},
            )
        return reply_with_faults(
            self.faults, service, lane, fn(args, lane), lambda: fn(args, lane)
        )

    def instance_stdout(self, instance: int) -> str:
        return "".join(self.stdout.get(instance, []))

    def all_stdout(self) -> str:
        return "".join(
            "".join(chunks) for _, chunks in sorted(self.stdout.items())
        )

    def close(self) -> None:
        for fh in self._files.values():
            try:
                fh.close()
            except Exception:
                pass
        self._files.clear()

    # ------------------------------------------------------------------
    # printf formatting
    # ------------------------------------------------------------------
    def format_printf(self, fmt: str, args: list) -> str:
        """C-style formatting against raw device argument values."""
        out: list[str] = []
        pos = 0
        argi = 0
        for match in _FMT_RE.finditer(fmt):
            out.append(fmt[pos : match.start()])
            pos = match.end()
            spec = match.group()
            conv = spec[-1]
            if conv == "%":
                out.append("%")
                continue
            if argi >= len(args):
                raise RPCError(f"printf format {fmt!r} consumes more than {len(args)} args")
            value = args[argi]
            argi += 1
            pyspec = re.sub(r"(?:hh|h|ll|l|z)(?=[diuxX])", "", spec)
            if conv in "di":
                out.append(pyspec.replace("i", "d") % int(value))
            elif conv == "u":
                out.append(pyspec.replace("u", "d") % (int(value) & (1 << 64) - 1))
            elif conv in "xX":
                out.append(pyspec % (int(value) & (1 << 64) - 1))
            elif conv in "feEgG":
                out.append(pyspec % float(value))
            elif conv == "c":
                out.append(chr(int(value) & 0xFF))
            elif conv == "s":
                out.append(self.memory.read_cstring(int(value)))
            elif conv == "p":
                out.append(f"0x{int(value):x}")
        out.append(fmt[pos:])
        return "".join(out)

    # ------------------------------------------------------------------
    # standard handlers
    # ------------------------------------------------------------------
    def _printf(self, args: list, lane: RpcLane) -> int:
        if not args:
            raise RPCError("printf needs a format string")
        fmt = self.memory.read_cstring(int(args[0]))
        text = self.format_printf(fmt, args[1:])
        self.stdout[lane.instance].append(text)
        return len(text)

    def _puts(self, args: list, lane: RpcLane) -> int:
        text = self.memory.read_cstring(int(args[0])) + "\n"
        self.stdout[lane.instance].append(text)
        return len(text)

    def _putchar(self, args: list, lane: RpcLane) -> int:
        ch = int(args[0]) & 0xFF
        self.stdout[lane.instance].append(chr(ch))
        return ch

    def _fopen(self, args: list, lane: RpcLane) -> int:
        path = self.memory.read_cstring(int(args[0]))
        mode = self.memory.read_cstring(int(args[1]))
        try:
            fh = open(path, mode)  # noqa: SIM115 - handle tracked in registry
        except OSError:
            return 0
        handle = self._next_handle
        self._next_handle += 1
        self._files[handle] = fh
        return handle

    def _fclose(self, args: list, lane: RpcLane) -> int:
        fh = self._files.pop(int(args[0]), None)
        if fh is None:
            return -1
        fh.close()
        return 0

    def _fputs(self, args: list, lane: RpcLane) -> int:
        fh = self._files.get(int(args[1]))
        if fh is None:
            return -1
        text = self.memory.read_cstring(int(args[0]))
        fh.write(text)
        return len(text)

    def _host_time_ns(self, args: list, lane: RpcLane) -> int:
        return time.monotonic_ns()

    def _abort(self, args: list, lane: RpcLane):
        raise DeviceTrap("abort() called", team=lane.team, thread=lane.lane)
