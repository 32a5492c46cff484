"""Device side of the host-RPC transport: a ring buffer in device memory.

The direct-compilation framework services host-only functions through a
shared ring: the device enqueues call descriptors, a host service thread
drains them, executes the handler, and writes results back (§2, [26]).

Layout (all fields i64, little-endian, in device global memory)::

    +0   head      next slot the device will claim (atomic counter)
    +8   tail      next slot the host will service
    +16  capacity  number of slots
    +24  slots[capacity] of SLOT_BYTES each:
           +0   status    0 empty / 1 request ready / 2 response ready
           +8   service   interned service id
           +16  nargs
           +24  args[MAX_ARGS] raw 64-bit values (floats bit-cast)
           +24+8*MAX_ARGS  result (raw 64 bits)

The cycle-level interpreter calls the host handler synchronously for speed
(each RPC already pays a large CPI penalty in the timing model); this module
provides the *transport-faithful* implementation used by the RPC framework
tests and by :class:`repro.host.transport.RingTransport` when a loader is
built with ``rpc_transport="ring"``, demonstrating that the mechanism works end-to-end over simulated memory.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.errors import RPCError
from repro.gpu.memory import GlobalMemory

MAX_ARGS = 8
SLOT_HEADER = 24  # status + service + nargs
SLOT_BYTES = SLOT_HEADER + 8 * MAX_ARGS + 8
RING_HEADER = 24

STATUS_EMPTY = 0
STATUS_REQUEST = 1
STATUS_RESPONSE = 2


def ring_bytes(capacity: int) -> int:
    """Total device-memory footprint of a ring with `capacity` slots."""
    return RING_HEADER + capacity * SLOT_BYTES


def _pack_value(v: float | int) -> int:
    if isinstance(v, float):
        return struct.unpack("<q", struct.pack("<d", v))[0]
    return int(v)


def _unpack_float(raw: int) -> float:
    return struct.unpack("<d", struct.pack("<q", raw))[0]


@dataclass
class RpcRecord:
    service_id: int
    args_raw: list[int]
    slot_addr: int


class DeviceRing:
    """Device-side view: claim a slot, write the request, await response."""

    def __init__(self, memory: GlobalMemory, base: int, capacity: int):
        self.memory = memory
        self.base = base
        self.capacity = capacity

    def initialize(self) -> None:
        self.memory.write_i64(self.base, 0)
        self.memory.write_i64(self.base + 8, 0)
        self.memory.write_i64(self.base + 16, self.capacity)
        self.memory.zero(self.base + RING_HEADER, self.capacity * SLOT_BYTES)

    def _slot_addr(self, slot_index: int) -> int:
        return self.base + RING_HEADER + (slot_index % self.capacity) * SLOT_BYTES

    def enqueue(self, service_id: int, args: list[float | int]) -> int:
        """Claim a slot and publish a request; returns the slot address."""
        if len(args) > MAX_ARGS:
            raise RPCError(f"RPC with {len(args)} args exceeds MAX_ARGS={MAX_ARGS}")
        head = self.memory.read_i64(self.base)
        tail = self.memory.read_i64(self.base + 8)
        if head - tail >= self.capacity:
            raise RPCError("RPC ring full (host not draining)")
        self.memory.write_i64(self.base, head + 1)
        slot = self._slot_addr(head)
        self.memory.write_i64(slot + 8, service_id)
        self.memory.write_i64(slot + 16, len(args))
        for i, a in enumerate(args):
            self.memory.write_i64(slot + SLOT_HEADER + 8 * i, _pack_value(a))
        self.memory.write_i64(slot, STATUS_REQUEST)  # publish last
        return slot

    def try_take_response(self, slot: int, *, as_float: bool = False) -> float | int | None:
        if self.memory.read_i64(slot) != STATUS_RESPONSE:
            return None
        raw = self.memory.read_i64(slot + SLOT_HEADER + 8 * MAX_ARGS)
        self.memory.write_i64(slot, STATUS_EMPTY)
        return _unpack_float(raw) if as_float else raw


class HostRing:
    """Host-side view: drain requests, execute, publish responses."""

    def __init__(self, memory: GlobalMemory, base: int):
        self.memory = memory
        self.base = base
        self.capacity = memory.read_i64(base + 16)
        if self.capacity <= 0:
            raise RPCError("RPC ring not initialized")

    def _slot_addr(self, slot_index: int) -> int:
        return self.base + RING_HEADER + (slot_index % self.capacity) * SLOT_BYTES

    def poll(self) -> RpcRecord | None:
        """Take the next pending request, if any (advances tail)."""
        head = self.memory.read_i64(self.base)
        tail = self.memory.read_i64(self.base + 8)
        if tail >= head:
            return None
        slot = self._slot_addr(tail)
        if self.memory.read_i64(slot) != STATUS_REQUEST:
            return None  # request claimed but not yet published
        self.memory.write_i64(self.base + 8, tail + 1)
        nargs = self.memory.read_i64(slot + 16)
        args = [
            self.memory.read_i64(slot + SLOT_HEADER + 8 * i) for i in range(nargs)
        ]
        return RpcRecord(self.memory.read_i64(slot + 8), args, slot)

    def respond(self, record: RpcRecord, result: float | int | None) -> None:
        raw = _pack_value(result if result is not None else 0)
        self.memory.write_i64(record.slot_addr + SLOT_HEADER + 8 * MAX_ARGS, raw)
        self.memory.write_i64(record.slot_addr, STATUS_RESPONSE)

    def drain(self, handler) -> int:
        """Service every pending request with ``handler(record) -> value``."""
        count = 0
        while (record := self.poll()) is not None:
            self.respond(record, handler(record))
            count += 1
        return count


def decode_float_arg(raw: int) -> float:
    """Host-side helper: reinterpret a raw slot value as f64."""
    return _unpack_float(raw)
