"""RPC transport: the ring buffer of Figure 2.

The interpreter performs RPCs through a callback.  The default (direct)
transport is :meth:`repro.host.rpc_host.RPCHost.handle` itself, called
synchronously.  :class:`RingTransport` is the transport-faithful path:
every device call is marshalled into the ring buffer in *device memory*
(:mod:`repro.runtime.rpc_device`), a real host service thread drains the
ring and executes handlers, and the device side spins until its response
slot is filled.  Results are identical to the direct path, injected
``rpc.reply`` faults included; only the mechanism differs.  Used by
``Loader(..., rpc_transport="ring")`` and the RPC framework tests.
"""

from __future__ import annotations

import threading
import time

from repro.errors import RPCError
from repro.frontend.intrinsics import HOST_FUNCS
from repro.gpu.device import GPUDevice
from repro.host.rpc_host import _FMT_RE, RPCHost, reply_with_faults
from repro.runtime.interpreter import RpcLane
from repro.runtime.rpc_device import DeviceRing, HostRing, decode_float_arg, ring_bytes

#: Ring capacity (slots) used by launches.
RING_SLOTS = 64

#: Stable service-id interning shared by both ring ends.
SERVICE_IDS: dict[str, int] = {name: i + 1 for i, name in enumerate(sorted(HOST_FUNCS))}
SERVICE_NAMES: dict[int, str] = {v: k for k, v in SERVICE_IDS.items()}

#: Which (0-based) argument positions of each service carry f64 payloads is
#: not statically known for varargs printf; the ring carries raw 64-bit
#: values and printf's %-spec drives decoding on the host side.
_PRINTF_LIKE = {"printf"}


class RingTransport:
    """Owns a ring in device memory plus the host service thread."""

    def __init__(self, device: GPUDevice, rpc_host: RPCHost, *, slots: int = RING_SLOTS):
        self.device = device
        self.rpc_host = rpc_host
        self.base = device.alloc(ring_bytes(slots))
        self.device_ring = DeviceRing(device.memory, self.base, slots)
        self.device_ring.initialize()
        self.host_ring = HostRing(device.memory, self.base)
        self._stop = threading.Event()
        self._lane_meta: dict[int, RpcLane] = {}  # slot addr -> lane identity
        self._meta_lock = threading.Lock()
        self._thread = threading.Thread(
            target=self._serve, name="repro-rpc-ring", daemon=True
        )
        self._thread.start()

    # -- host service thread ------------------------------------------------
    def _serve(self) -> None:
        def handle(record):
            name = SERVICE_NAMES.get(record.service_id)
            if name is None:
                raise RPCError(f"unknown service id {record.service_id}")
            with self._meta_lock:
                lane = self._lane_meta.pop(record.slot_addr, None)
            if lane is None:
                lane = RpcLane(team=-1, instance=-1, lane=-1)
            args = self._decode_args(name, record.args_raw)
            result = self.rpc_host.handle(name, args, lane)
            if isinstance(result, float):
                return result
            return result if result is not None else 0

        while not self._stop.is_set():
            if self.host_ring.drain(handle) == 0:
                time.sleep(0.0002)
        self.host_ring.drain(handle)

    def _decode_args(self, name: str, raw: list[int]) -> list:
        if name in _PRINTF_LIKE and raw:
            # fmt pointer first; remaining args decoded per %-spec
            fmt = self.rpc_host.memory.read_cstring(int(raw[0]))
            specs = [m.group()[-1] for m in _FMT_RE.finditer(fmt)]
            specs = [c for c in specs if c != "%"]  # %% consumes no argument
            args: list = [raw[0]]
            for spec, value in zip(specs, raw[1:]):
                if spec in "feEgG":
                    args.append(decode_float_arg(value))
                else:
                    args.append(value)
            return args
        sig = HOST_FUNCS.get(name)
        if sig is None or sig[0] is None:
            return list(raw)
        args = []
        for dt, value in zip(sig[0], raw):
            args.append(decode_float_arg(value) if dt.is_float else value)
        return args

    # -- device-side callback -------------------------------------------------
    def _round_trip(self, service_id: int, args: list, lane: RpcLane):
        """Publish one request and spin until the host thread answers.

        The request is published and its caller's lane recorded under the
        one lock the service thread takes to look the lane up, so the host
        never services a request before it knows whose it is.
        """
        with self._meta_lock:
            slot = self.device_ring.enqueue(service_id, args)
            self._lane_meta[slot] = lane
        deadline = time.monotonic() + 10.0
        while True:
            got = self.device_ring.try_take_response(slot)
            if got is not None:
                return got
            if time.monotonic() > deadline:
                raise RPCError(
                    f"RPC {SERVICE_NAMES[service_id]!r} timed out waiting "
                    "for the host thread"
                )
            time.sleep(0.00005)

    def endpoint(self):
        """The rpc callback handed to the interpreter.

        Injected ``rpc.reply`` faults are applied here, on the device side
        of the ring, once the host's response has arrived, by the same
        :func:`~repro.host.rpc_host.reply_with_faults` the direct transport
        uses: an injected error raised inside the host drain thread would
        kill the thread and wedge every spinning caller, which is a hang,
        not a fault model.  The host-side
        :class:`~repro.host.rpc_host.RPCHost` is left without a fault hook
        in ring mode so a call is never double-fired; ``rpc_dup``
        publishes the request a second time.
        """
        faults = self.device.faults

        def call(service: str, args: list, lane: RpcLane):
            service_id = SERVICE_IDS.get(service)
            if service_id is None:
                raise RPCError(f"service {service!r} has no ring id")
            return reply_with_faults(
                faults,
                service,
                lane,
                self._round_trip(service_id, args, lane),
                lambda: self._round_trip(service_id, args, lane),
            )

        return call

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)
        self.device.free(self.base)

