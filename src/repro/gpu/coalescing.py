"""Warp-level memory coalescing.

NVIDIA-style memory systems service a warp's global access as a set of
32-byte *sectors*; when the 32 lanes touch consecutive addresses the access
"coalesces" into few sectors, while scattered lanes each pay a full sector.
The interpreter hands the coalescer the **actual byte addresses** issued by
the active lanes of each warp; the coalescer returns the unique
(warp, sector) pairs.  Everything downstream — L2, DRAM row locality — is
computed from these real sector streams, which is what makes the sub-linear
ensemble scaling in Figure 6 emerge from first principles rather than from
a fitted curve.
"""

from __future__ import annotations

import numpy as np

#: Sector (transaction) size in bytes.
SECTOR_BYTES = 32
_SECTOR_SHIFT = 5
#: Bits reserved for sector ids when packing (warp, sector) keys.
_KEY_SHIFT = 40


def sector_ids(addrs: np.ndarray, access_size: int) -> np.ndarray:
    """Sectors spanned by each access of ``access_size`` bytes (per lane).

    Accesses of <= 8 bytes touch one sector unless they straddle a boundary
    (impossible for naturally aligned accesses, which the memory model
    enforces), so the first-byte sector suffices.
    """
    return addrs >> _SECTOR_SHIFT


def warp_sector_keys(
    lane_ids: np.ndarray, addrs: np.ndarray, access_size: int, warp_size: int = 32
) -> np.ndarray:
    """Unique packed ``warp << 40 | sector`` keys for one memory instruction.

    ``lane_ids`` and ``addrs`` are the active lanes and their byte
    addresses.  The result is sorted (by warp, then sector), deduplicated —
    i.e. one entry per memory transaction actually issued.
    """
    warps = (lane_ids // warp_size).astype(np.int64)
    sectors = sector_ids(addrs.astype(np.int64), access_size)
    keys = (warps << _KEY_SHIFT) | sectors
    return np.unique(keys)


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` for a 1-D integer array, through one
    ``np.sort``: on sector streams of a few 100k entries it is several
    times faster than ``np.unique``'s hash-based path."""
    values = np.sort(values)
    first = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


def split_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unpack key array into (warp ids, sector ids)."""
    return keys >> _KEY_SHIFT, keys & ((1 << _KEY_SHIFT) - 1)


def transactions_per_warp(keys: np.ndarray) -> dict[int, int]:
    """Transaction count by warp for one instruction (diagnostics/tests)."""
    warps, _ = split_keys(keys)
    uniq, counts = np.unique(warps, return_counts=True)
    return {int(w): int(c) for w, c in zip(uniq, counts)}


def uncoalesced_keys(
    lane_ids: np.ndarray, addrs: np.ndarray, warp_size: int = 32
) -> np.ndarray:
    """Ablation model ("coalescing off"): every active lane pays a private
    sector.  Keys are made unique per lane by folding the lane id in, so a
    32-lane access costs 32 transactions no matter the addresses."""
    warps = (lane_ids // warp_size).astype(np.int64)
    lanes = (lane_ids % warp_size).astype(np.int64)
    sectors = sector_ids(addrs.astype(np.int64), 1)
    keys = (warps << _KEY_SHIFT) | (sectors << (warp_size.bit_length() - 1)) | lanes
    return keys  # deliberately not deduplicated across lanes
