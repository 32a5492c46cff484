"""The fault-plan spec language: what to break, where, and how often.

A *plan* is a ``;``-separated list of fault specs; a *spec* is a kind plus
``key=value`` parameters::

    oom:device=pool1:job=3          # one launch on pool1 of job 3 OOMs
    rpc_drop:rate=0.05:seed=42      # 5% of RPC replies are dropped
    slow_team:team=2:factor=10      # team 2 runs 10x slower
    transport_corrupt:byte=7        # flip the top byte of RPC replies
    deadline:job=*                  # every job's deadline fires
    worker_death:device=pool0       # pool0 dies on every dispatch

Selectors (``device``/``job``/``team``/``instance``/``service``) restrict
where a fault fires; ``*`` matches anything.  Control parameters shape the
firing schedule: ``rate`` (probability per consultation, drawn from a
deterministic per-spec PRNG), ``seed`` (that PRNG's seed), ``times`` (max
fires), ``after`` (skip the first N matching consultations).  Everything
is validated against the kind registry in :data:`KINDS`, so a typo'd plan
fails at parse time, not mid-campaign — ``python -m repro.faults.check``
is the CLI wrapper around that validation.

Plans also round-trip through JSON (:meth:`FaultPlan.from_json` /
:meth:`FaultPlan.to_json`) for harness configs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError


class FaultPlanError(ReproError):
    """A fault-plan spec string or JSON document is malformed."""


#: Selector parameters every kind accepts (subset per kind, see KINDS).
SELECTOR_KEYS = ("device", "job", "team", "instance", "service")

#: Schedule-control parameters every kind accepts.
CONTROL_KEYS = ("rate", "seed", "times", "after")


@dataclass(frozen=True)
class FaultKind:
    """Registry entry: where a kind fires and which params it takes."""

    point: str
    selectors: frozenset[str]
    extras: frozenset[str] = frozenset()
    doc: str = ""

    @property
    def params(self) -> frozenset[str]:
        return self.selectors | self.extras | frozenset(CONTROL_KEYS)


#: Every fault kind, keyed by spec-string name.  ``point`` names the
#: injection point that consults the injector (see docs/faults.md).
KINDS: dict[str, FaultKind] = {
    "oom": FaultKind(
        point="device.alloc",
        selectors=frozenset({"device", "job"}),
        doc="a launch-scoped device allocation fails (DeviceOutOfMemory)",
    ),
    "slow_team": FaultKind(
        point="device.launch",
        selectors=frozenset({"device", "job", "team"}),
        extras=frozenset({"factor"}),
        doc="one team's simulated block time is inflated by `factor`",
    ),
    "rpc_drop": FaultKind(
        point="rpc.reply",
        selectors=frozenset(SELECTOR_KEYS),
        doc="the RPC reply is dropped; the launch fails transiently",
    ),
    "rpc_dup": FaultKind(
        point="rpc.reply",
        selectors=frozenset(SELECTOR_KEYS),
        doc="the RPC request is delivered twice; its side effects repeat",
    ),
    "rpc_timeout": FaultKind(
        point="rpc.reply",
        selectors=frozenset(SELECTOR_KEYS),
        doc="the reply never arrives; only that instance's team faults",
    ),
    "transport_corrupt": FaultKind(
        point="rpc.reply",
        selectors=frozenset(SELECTOR_KEYS),
        extras=frozenset({"byte"}),
        doc="byte `byte` of the integer RPC reply is bit-flipped",
    ),
    "worker_death": FaultKind(
        point="sched.dispatch",
        selectors=frozenset({"device", "job"}),
        doc="the dispatched-to pool worker dies before launching",
    ),
    "poison": FaultKind(
        point="sched.dispatch",
        selectors=frozenset({"device", "job", "instance"}),
        doc="the matching job/instance is poisoned and fault-isolated",
    ),
    "deadline": FaultKind(
        point="sched.dispatch",
        selectors=frozenset({"job"}),
        doc="the job's deadline fires; pending instances are isolated",
    ),
}


def _parse_number(key: str, raw: str, cast, lo=None, hi=None):
    try:
        value = cast(raw)
    except ValueError:
        raise FaultPlanError(
            f"parameter {key}={raw!r} is not a valid {cast.__name__}"
        ) from None
    if lo is not None and value < lo:
        raise FaultPlanError(f"parameter {key}={raw!r} must be >= {lo}")
    if hi is not None and value > hi:
        raise FaultPlanError(f"parameter {key}={raw!r} must be <= {hi}")
    return value


@dataclass
class FaultSpec:
    """One fault: a kind plus raw ``key=value`` parameters.

    Parameters are kept as strings so a spec formats back to exactly the
    grammar it was parsed from; typed accessors (:attr:`rate`,
    :attr:`times`, :attr:`factor`...) parse on demand.
    """

    kind: str
    params: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.validate()

    # -- validation ---------------------------------------------------------
    def validate(self) -> None:
        info = KINDS.get(self.kind)
        if info is None:
            known = ", ".join(sorted(KINDS))
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r} (known kinds: {known})"
            )
        for key in self.params:
            if key not in info.params:
                allowed = ", ".join(sorted(info.params))
                raise FaultPlanError(
                    f"fault {self.kind!r} does not take parameter {key!r} "
                    f"(allowed: {allowed})"
                )
        # touching each typed accessor validates its raw value
        self.rate, self.seed, self.times, self.after, self.factor, self.byte

    # -- identity -----------------------------------------------------------
    @property
    def point(self) -> str:
        return KINDS[self.kind].point

    def selector(self, key: str) -> str | None:
        """Raw selector value (``"*"`` for wildcard), or None if unset."""
        return self.params.get(key)

    # -- typed control parameters ------------------------------------------
    @property
    def rate(self) -> float | None:
        raw = self.params.get("rate")
        if raw is None:
            return None
        return _parse_number("rate", raw, float, lo=0.0, hi=1.0)

    @property
    def seed(self) -> int | None:
        raw = self.params.get("seed")
        return None if raw is None else _parse_number("seed", raw, int)

    @property
    def times(self) -> int | None:
        raw = self.params.get("times")
        return None if raw is None else _parse_number("times", raw, int, lo=1)

    @property
    def after(self) -> int:
        raw = self.params.get("after")
        return 0 if raw is None else _parse_number("after", raw, int, lo=0)

    @property
    def factor(self) -> float:
        raw = self.params.get("factor")
        if raw is None:
            return 10.0
        value = _parse_number("factor", raw, float)
        if value <= 0:
            raise FaultPlanError(f"parameter factor={raw!r} must be > 0")
        return value

    @property
    def byte(self) -> int:
        raw = self.params.get("byte")
        return 0 if raw is None else _parse_number("byte", raw, int, lo=0, hi=7)

    # -- formatting ---------------------------------------------------------
    def format(self) -> str:
        parts = [self.kind] + [f"{k}={v}" for k, v in self.params.items()]
        return ":".join(parts)

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        parts = [p.strip() for p in text.strip().split(":")]
        if not parts or not parts[0]:
            raise FaultPlanError(f"empty fault spec in {text!r}")
        kind, params = parts[0], {}
        for part in parts[1:]:
            if "=" not in part:
                raise FaultPlanError(
                    f"fault parameter {part!r} is not of the form key=value"
                )
            key, _, value = part.partition("=")
            key, value = key.strip(), value.strip()
            if not value:
                raise FaultPlanError(f"fault parameter {key!r} has no value")
            if key in params:
                raise FaultPlanError(f"duplicate parameter {key!r} in {text!r}")
            params[key] = value
        return cls(kind, params)


@dataclass
class FaultPlan:
    """An ordered set of fault specs plus a plan-level default seed.

    Specs without their own ``seed=`` parameter derive a deterministic
    per-spec stream from ``seed`` and their position, so the whole plan is
    reproducible from one number.
    """

    specs: list[FaultSpec] = field(default_factory=list)
    seed: int = 0

    def __bool__(self) -> bool:
        return bool(self.specs)

    def format(self) -> str:
        return ";".join(spec.format() for spec in self.specs)

    @classmethod
    def parse(cls, text: str, *, seed: int = 0) -> "FaultPlan":
        chunks = [c for c in (p.strip() for p in text.split(";")) if c]
        if not chunks:
            raise FaultPlanError("fault plan is empty")
        return cls([FaultSpec.parse(c) for c in chunks], seed=seed)

    # -- JSON shape ---------------------------------------------------------
    @classmethod
    def from_json(cls, data) -> "FaultPlan":
        """Build a plan from ``{"seed": .., "faults": [{"kind": ..}, ..]}``
        (or a bare list of fault objects)."""
        seed = 0
        if isinstance(data, dict):
            seed = int(data.get("seed", 0))
            data = data.get("faults", [])
        if not isinstance(data, list):
            raise FaultPlanError(
                "fault-plan JSON must be a list of faults or an object "
                "with a 'faults' list"
            )
        specs = []
        for entry in data:
            if not isinstance(entry, dict) or "kind" not in entry:
                raise FaultPlanError(
                    f"fault entry {entry!r} must be an object with a 'kind'"
                )
            params = {
                str(k): str(v) for k, v in entry.items() if k != "kind"
            }
            specs.append(FaultSpec(str(entry["kind"]), params))
        if not specs:
            raise FaultPlanError("fault plan is empty")
        return cls(specs, seed=seed)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "faults": [
                {"kind": s.kind, **s.params} for s in self.specs
            ],
        }

    # -- wire shape (docs/serve.md) -----------------------------------------
    def to_wire(self) -> dict:
        """Versioned wire document (see :mod:`repro.wire`)."""
        from repro import wire

        data = wire.envelope("FaultPlan")
        data.update(self.to_json())
        return data

    @classmethod
    def from_wire(cls, data) -> "FaultPlan":
        """Parse a wire document; malformed plans surface as
        :class:`~repro.wire.WireError` with the stable ``E_SCHEMA`` code."""
        from repro import wire

        wire.check_envelope(data, "FaultPlan")
        seed = wire.get_field(data, "seed", int, 0, kind="FaultPlan")
        faults = wire.get_field(data, "faults", list, kind="FaultPlan")
        try:
            return cls.from_json({"seed": seed, "faults": faults})
        except FaultPlanError as exc:
            raise wire.WireError(f"FaultPlan: {exc}") from exc


__all__ = [
    "FaultKind",
    "FaultPlan",
    "FaultPlanError",
    "FaultSpec",
    "KINDS",
    "SELECTOR_KEYS",
    "CONTROL_KEYS",
]
