"""Functional device global memory.

A single byte-addressable numpy arena with typed, fully vectorized gather /
scatter used by the SIMT interpreter (all lanes of a team access memory in
one numpy operation).  Address 0 plus a guard page below
:data:`NULL_GUARD` bytes is never valid, so null-pointer dereferences fault
like on real hardware.

Alignment rules are the natural ones (i64/f64 -> 8, i32/f32 -> 4, i8 -> 1);
violations raise :class:`~repro.errors.MemoryFault` — sloppy address math in
a ported benchmark shows up immediately instead of corrupting neighbours.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MemoryFault
from repro.ir.types import MemType

#: Bytes reserved at the bottom of the address space (null guard page).
NULL_GUARD = 4096

_NP_DTYPE = {
    MemType.I8: np.int8,
    MemType.I32: np.int32,
    MemType.I64: np.int64,
    MemType.F32: np.float32,
    MemType.F64: np.float64,
}


class GlobalMemory:
    """Byte-addressable simulated device memory."""

    def __init__(self, capacity: int):
        if capacity <= NULL_GUARD:
            raise ValueError(f"capacity must exceed the {NULL_GUARD}-byte null guard")
        capacity = (capacity + 7) & ~7  # keep the f64/i64 views aligned
        self.capacity = capacity
        self._buf = np.zeros(capacity, dtype=np.uint8)
        self._views = {
            MemType.I8: self._buf.view(np.int8),
            MemType.I32: self._buf.view(np.int32),
            MemType.I64: self._buf.view(np.int64),
            MemType.F32: self._buf.view(np.float32),
            MemType.F64: self._buf.view(np.float64),
        }

    # ------------------------------------------------------------------
    # vectorized lane access (used by the interpreter)
    # ------------------------------------------------------------------
    def _indices(self, addrs: np.ndarray, mty: MemType) -> np.ndarray:
        """Element indices for per-lane addresses, with the null-guard and
        alignment checks.

        Hot path: called for every load/store the interpreter executes.
        Sizes are powers of two, so alignment is a bitwise test and the
        element index a shift.  The *upper* bound is deliberately not
        checked here — element views are exactly ``capacity // size`` long,
        so numpy's own fancy-index bounds check catches overruns for free;
        callers translate that ``IndexError`` via :meth:`_beyond_end`
        (negative addresses land below the null guard and are caught by the
        ``min()`` test)."""
        size = mty.size
        if addrs.size == 0:
            return addrs
        if addrs.min() < NULL_GUARD:
            bad = int(addrs.min())
            raise MemoryFault(
                f"access at {bad:#x} inside the null guard page ({mty.label})"
            )
        if size == 1:
            return addrs
        # OR-reduce folds every address into one word: any set low bit in
        # any lane shows up in the fold, so one reduction replaces the
        # elementwise mask + any() pass.
        if int(np.bitwise_or.reduce(addrs)) & (size - 1):
            bad = int(addrs[addrs % size != 0][0])
            raise MemoryFault(f"misaligned {mty.label} access at {bad:#x}")
        return addrs >> (size.bit_length() - 1)

    def _beyond_end(self, addrs: np.ndarray) -> MemoryFault:
        hi = int(addrs.max())
        return MemoryFault(
            f"access at {hi:#x} beyond device memory end {self.capacity:#x}"
        )

    def gather(self, addrs: np.ndarray, mty: MemType) -> np.ndarray:
        """Load one element per address; returns i64 or f64 values."""
        idx = self._indices(addrs, mty)
        try:
            vals = self._views[mty][idx]
        except IndexError:
            raise self._beyond_end(addrs) from None
        if mty.reg_ty.is_int:
            return vals.astype(np.int64, copy=False)
        return vals.astype(np.float64, copy=False)

    def scatter(self, addrs: np.ndarray, values: np.ndarray, mty: MemType) -> None:
        """Store one element per address (later lanes win on conflicts, like
        the unordered-but-single-winner semantics of a real warp)."""
        idx = self._indices(addrs, mty)
        try:
            self._views[mty][idx] = values.astype(_NP_DTYPE[mty], copy=False)
        except IndexError:
            raise self._beyond_end(addrs) from None

    def fetch_add(self, addrs: np.ndarray, values: np.ndarray, mty: MemType) -> np.ndarray:
        """Atomic fetch-and-add per lane, correct under intra-call address
        collisions: lanes hitting the same address see a serialized order
        (lane order) and each receives the value before its own add.

        Float note: the vectorized prefix computation may leave O(eps *
        sum|v|) rounding on the returned *old* values relative to a strictly
        serial order (final memory contents are ordinary float sums either
        way).  Real GPU atomics give no ordering guarantee at all, so this
        is within the modeled semantics."""
        idx = self._indices(addrs, mty)
        view = self._views[mty]
        n = idx.size
        if n == 0:
            return values[:0]
        order = np.argsort(idx, kind="stable")
        sidx = idx[order]
        svals = values.astype(np.float64 if mty.reg_ty.is_float else np.int64)[order]
        group_start = np.empty(n, dtype=bool)
        group_start[0] = True
        group_start[1:] = sidx[1:] != sidx[:-1]
        cums = np.cumsum(svals)
        excl = cums - svals
        start_pos = np.maximum.accumulate(np.where(group_start, np.arange(n), 0))
        excl_in_group = excl - excl[start_pos]
        try:
            base = view[sidx].astype(svals.dtype)
        except IndexError:
            raise self._beyond_end(addrs) from None
        old_sorted = base + excl_in_group
        old = np.empty_like(old_sorted)
        old[order] = old_sorted
        # apply the total per-address delta
        np.add.at(view, idx, values.astype(_NP_DTYPE[mty]))
        if mty.reg_ty.is_int:
            return old.astype(np.int64)
        return old.astype(np.float64)

    def fetch_max(self, addrs: np.ndarray, values: np.ndarray, mty: MemType) -> np.ndarray:
        """Atomic fetch-and-max per lane (serialized in lane order)."""
        idx = self._indices(addrs, mty)
        view = self._views[mty]
        old = np.empty(idx.size, dtype=np.float64 if mty.reg_ty.is_float else np.int64)
        try:
            for k in range(idx.size):  # atomics with max are rare; keep it simple
                i = int(idx[k])
                old[k] = view[i]
                if values[k] > view[i]:
                    view[i] = values[k]
        except IndexError:
            raise self._beyond_end(addrs) from None
        return old

    # ------------------------------------------------------------------
    # host-side access (loader, RPC handlers, tests)
    # ------------------------------------------------------------------
    def _host_check(self, addr: int, nbytes: int) -> None:
        if addr < NULL_GUARD or addr + nbytes > self.capacity:
            raise MemoryFault(
                f"host access [{addr:#x}, {addr + nbytes:#x}) out of range"
            )

    def write_bytes(self, addr: int, data: bytes) -> None:
        self._host_check(addr, len(data))
        self._buf[addr : addr + len(data)] = np.frombuffer(data, dtype=np.uint8)

    def read_bytes(self, addr: int, nbytes: int) -> bytes:
        self._host_check(addr, nbytes)
        return self._buf[addr : addr + nbytes].tobytes()

    def write_array(self, addr: int, array: np.ndarray) -> None:
        raw = np.ascontiguousarray(array)
        self.write_bytes(addr, raw.tobytes())

    def read_array(self, addr: int, dtype, count: int) -> np.ndarray:
        nbytes = np.dtype(dtype).itemsize * count
        raw = self.read_bytes(addr, nbytes)
        return np.frombuffer(raw, dtype=dtype).copy()

    def read_i64(self, addr: int) -> int:
        return int(self.read_array(addr, np.int64, 1)[0])

    def write_i64(self, addr: int, value: int) -> None:
        self.write_array(addr, np.array([value], dtype=np.int64))

    def read_f64(self, addr: int) -> float:
        return float(self.read_array(addr, np.float64, 1)[0])

    def write_f64(self, addr: int, value: float) -> None:
        self.write_array(addr, np.array([value], dtype=np.float64))

    def read_cstring(self, addr: int, max_len: int = 1 << 16) -> str:
        """Read a NUL-terminated string (for RPC handlers like printf)."""
        self._host_check(addr, 1)
        end = min(self.capacity, addr + max_len)
        chunk = self._buf[addr:end]
        nul = np.flatnonzero(chunk == 0)
        if nul.size == 0:
            raise MemoryFault(f"unterminated string at {addr:#x}")
        return chunk[: nul[0]].tobytes().decode(errors="replace")

    def zero(self, addr: int, nbytes: int) -> None:
        self._host_check(addr, nbytes)
        self._buf[addr : addr + nbytes] = 0
