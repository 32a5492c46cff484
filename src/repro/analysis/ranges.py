"""Integer intervals: the value domain the safety analyzer
(:mod:`repro.analysis.safety`) attaches to registers and difference
facts.  An :class:`Interval` ``[lo, hi]`` may be open at either end
(``None``)."""

from __future__ import annotations

from dataclasses import dataclass

#: Magnitudes beyond 2**63 are treated as unbounded: cheaper than exact
#: big-interval arithmetic and sound for any i64 interpretation.
_LIMIT = 1 << 63


def _clip(v: int | None, *, low: bool) -> int | None:
    if v is None:
        return None
    if low:
        return None if v < -_LIMIT else v
    return None if v > _LIMIT else v


@dataclass(frozen=True)
class Interval:
    """A (possibly half-open) integer interval; ``None`` = unbounded."""

    lo: int | None = None
    hi: int | None = None

    # -- constructors ---------------------------------------------------
    @staticmethod
    def const(v: int) -> "Interval":
        return Interval(v, v)

    @staticmethod
    def of(lo: int | None, hi: int | None) -> "Interval":
        return Interval(_clip(lo, low=True), _clip(hi, low=False))

    # -- predicates -----------------------------------------------------
    @property
    def is_top(self) -> bool:
        return self.lo is None and self.hi is None

    @property
    def as_const(self) -> int | None:
        return self.lo if self.lo is not None and self.lo == self.hi else None

    # -- lattice --------------------------------------------------------
    def join(self, other: "Interval") -> "Interval":
        lo = None if self.lo is None or other.lo is None else min(self.lo, other.lo)
        hi = None if self.hi is None or other.hi is None else max(self.hi, other.hi)
        return Interval(lo, hi)

    def widen(self, other: "Interval") -> "Interval":
        """Keep only the bounds ``other`` did not move past."""
        lo = self.lo if (self.lo is not None and other.lo is not None and other.lo >= self.lo) else None
        hi = self.hi if (self.hi is not None and other.hi is not None and other.hi <= self.hi) else None
        return Interval(lo, hi)

    # -- arithmetic -----------------------------------------------------
    def add(self, o: "Interval") -> "Interval":
        lo = None if self.lo is None or o.lo is None else self.lo + o.lo
        hi = None if self.hi is None or o.hi is None else self.hi + o.hi
        return Interval.of(lo, hi)

    def neg(self) -> "Interval":
        return Interval.of(
            None if self.hi is None else -self.hi,
            None if self.lo is None else -self.lo,
        )

    def sub(self, o: "Interval") -> "Interval":
        return self.add(o.neg())

    def mul(self, o: "Interval") -> "Interval":
        if None in (self.lo, self.hi, o.lo, o.hi):
            # One open end: only the all-non-negative case keeps a bound.
            if (
                self.lo is not None
                and self.lo >= 0
                and o.lo is not None
                and o.lo >= 0
            ):
                return Interval.of(self.lo * o.lo, None)
            return TOP
        prods = [self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi]
        return Interval.of(min(prods), max(prods))

    def min_(self, o: "Interval") -> "Interval":
        lo = None if self.lo is None or o.lo is None else min(self.lo, o.lo)
        his = [h for h in (self.hi, o.hi) if h is not None]
        return Interval.of(lo, min(his) if his else None)

    def max_(self, o: "Interval") -> "Interval":
        los = [lo for lo in (self.lo, o.lo) if lo is not None]
        hi = None if self.hi is None or o.hi is None else max(self.hi, o.hi)
        return Interval.of(max(los) if los else None, hi)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"


TOP = Interval()


__all__ = ["Interval", "TOP"]
