"""Auto-ensembling of natural Python driver loops.

The paper's expert contract — write an argument file, build a
:class:`~repro.host.launch.LaunchSpec`, pick an entry point — becomes a
decorator::

    from repro.frontend.autoensemble import ensemble

    @ensemble(app="stencil")
    def campaign(run):
        total = 0.0
        for seed in range(1, 9):
            r = run(["-n", "2048", "-s", str(seed)])
            total += r.exit_code
        return total

    outcome = campaign()          # one ensemble launch, not 8 sequential runs

The engine is the JAX-style recipe of SNIPPETS.md (XCS snippets 1-2)
gated by a *proof* instead of an assertion:

1. **Analyze** — :mod:`repro.analysis.driverdep` lifts the driver into an
   SSA/def-use form and classifies every name the loop touches.  Anything
   but loop-locals, read-only outer state, and provable reductions rejects
   the loop with structured diagnostics (:class:`AutoEnsembleError`).
2. **Trace** — the driver runs once with a recording launcher: every
   ``run(...)`` call contributes one instance's argument vector and
   returns an inert placeholder.  Because the analyzer proved the body
   free of loop-carried state, the recorded batch is exactly what
   sequential execution would have launched.
3. **Launch** — the recorded vectors become an in-memory argument source
   on a :class:`~repro.host.launch.LaunchSpec`, dispatched through
   :mod:`repro.sched` (a :class:`~repro.sched.Scheduler` over a
   :class:`~repro.sched.DevicePool`, one device by default).
4. **Replay** — the driver runs a second time with a launcher that hands
   back the real per-instance results *in recorded order*.  Reductions
   therefore fold in exactly the sequential iteration order, so the
   driver's return value is bitwise-identical to sequential execution.

``mode="sequential"`` skips all of that and executes each ``run`` call
immediately on a single device — the oracle the differential tests
compare against.

Drivers must be functions of their parameters and closure: the prologue
and epilogue execute twice (trace + replay), which is why the analyzer
insists reduction accumulators are initialized inside the driver.
"""

from __future__ import annotations

import shlex
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.driverdep import LoopClassification, analyze_driver
from repro.errors import AutoEnsembleError
from repro.host.launch import LaunchSpec

#: Loader keyword options forwarded to the launch surfaces.
_LOADER_OPT_KEYS = (
    "mapping",
    "heap_bytes",
    "stack_bytes",
    "team_local_globals",
    "opt_level",
    "allow_races",
)


@dataclass(frozen=True)
class AutoRunResult:
    """What one ``run(...)`` call evaluates to, in either mode.

    Only order-independent facts are exposed: cycle counts differ between
    a contended ensemble and sequential runs, so they are deliberately
    not part of this surface (they remain available on
    :attr:`AutoEnsembleOutcome.campaign`).
    """

    index: int
    args: tuple[str, ...]
    exit_code: int
    stdout: str

    @property
    def ok(self) -> bool:
        return self.exit_code == 0


@dataclass
class AutoEnsembleOutcome:
    """Everything :func:`auto_launch` produced for one driver invocation."""

    #: the driver function's own return value (replay pass)
    value: Any
    #: per-instance results in run-call order
    instances: list[AutoRunResult]
    #: "ensemble" or "sequential"
    mode: str
    #: the analyzer's verdicts, one per driver loop
    classifications: list[LoopClassification]
    #: the spec the engine derived (None in sequential mode)
    spec: LaunchSpec | None = None
    #: the underlying campaign/ensemble result (None in sequential mode)
    campaign: Any = field(default=None, repr=False)

    @property
    def all_succeeded(self) -> bool:
        return all(r.exit_code == 0 for r in self.instances)

    @property
    def num_instances(self) -> int:
        return len(self.instances)


# ---------------------------------------------------------------------------
# Trace / replay launchers
# ---------------------------------------------------------------------------


class _Pending:
    """Inert placeholder a traced ``run(...)`` call returns.

    Attribute access and arithmetic stay pending (so reduction updates
    like ``total += r.exit_code`` trace through harmlessly); anything
    that would force a concrete value — branching, iteration, indexing by
    it — raises, as a backstop behind the static analyzer.
    """

    __slots__ = ()

    def __getattr__(self, name: str) -> "_Pending":
        if name.startswith("__"):
            raise AttributeError(name)
        return _PENDING

    def __repr__(self) -> str:
        return "<pending run result>"

    def __format__(self, spec: str) -> str:
        return "<pending run result>"

    def __bool__(self) -> bool:
        raise AutoEnsembleError(
            "driver control flow depends on a run result; the static "
            "analyzer should have rejected this loop — please report"
        )

    def __iter__(self):
        raise AutoEnsembleError(
            "driver iterates over a run result; the static analyzer "
            "should have rejected this loop — please report"
        )

    def __index__(self) -> int:
        raise AutoEnsembleError("a run result was used as an index")


class _PendingOrdering:
    """What comparing a pending run result evaluates to.

    ``min()``/``max()`` reductions force a comparison during the trace
    pass.  The analyzer already proved the accumulator never feeds a
    ``run(...)`` argument, and the replay pass recomputes it from real
    results, so the branch taken here is immaterial — it only has to
    not crash.  Resolving to False keeps a concrete accumulator
    concrete (``min(acc, pending)`` keeps ``acc``).
    """

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "<pending comparison>"


_PENDING_ORDERING = _PendingOrdering()


def _pending_binop(self, *args, **kwargs) -> _Pending:
    return _PENDING


def _pending_compare(self, *args, **kwargs) -> _PendingOrdering:
    return _PENDING_ORDERING


for _dunder in (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
    "__mod__", "__rmod__", "__pow__", "__rpow__", "__and__", "__rand__",
    "__or__", "__ror__", "__xor__", "__rxor__", "__neg__", "__pos__",
    "__abs__", "__eq__", "__ne__", "__getitem__", "__call__",
):
    setattr(_Pending, _dunder, _pending_binop)

for _dunder in ("__lt__", "__le__", "__gt__", "__ge__"):
    setattr(_Pending, _dunder, _pending_compare)

_PENDING = _Pending()


def _normalize_call(args: tuple, kwargs: dict) -> tuple[str, ...]:
    """One ``run(...)`` call -> one instance argument vector.

    Accepted shapes, concatenated left to right:

    * a sequence of tokens (``run(["-n", "8"])``),
    * a string, split with POSIX shell rules (``run("-n 8")``),
    * bare scalars (``run("-n", 8)`` — a single-token string stays one
      token only when it contains no whitespace).
    """
    if kwargs:
        raise AutoEnsembleError(
            f"run() takes positional argument tokens only, got keyword(s) "
            f"{sorted(kwargs)}"
        )
    tokens: list[str] = []
    for part in args:
        if isinstance(part, str):
            tokens.extend(shlex.split(part, posix=True))
        elif isinstance(part, (list, tuple)):
            tokens.extend(str(t) for t in part)
        elif isinstance(part, (int, float)):
            tokens.append(str(part))
        else:
            raise AutoEnsembleError(
                f"unsupported run() argument {part!r}: pass token "
                "sequences, strings, or scalars"
            )
    return tuple(tokens)


class _Recorder:
    """Trace-pass launcher: records argument vectors, returns pendings."""

    def __init__(self) -> None:
        self.calls: list[tuple[str, ...]] = []

    def __call__(self, *args, **kwargs) -> _Pending:
        self.calls.append(_normalize_call(args, kwargs))
        return _PENDING


class _Player:
    """Replay-pass launcher: hands back real results in recorded order.

    Re-normalizes each call's arguments and checks them against the
    trace — a mismatch means the driver is not a pure function of its
    iterable (e.g. it consumed a random stream), which would silently
    break the sequential-equivalence contract.
    """

    def __init__(self, results: list[AutoRunResult]):
        self.results = results
        self.cursor = 0

    def __call__(self, *args, **kwargs) -> AutoRunResult:
        tokens = _normalize_call(args, kwargs)
        if self.cursor >= len(self.results):
            raise AutoEnsembleError(
                f"replay drift: the driver issued more run() calls "
                f"({self.cursor + 1}+) than the trace recorded "
                f"({len(self.results)}); drivers must be deterministic"
            )
        result = self.results[self.cursor]
        if tokens != result.args:
            raise AutoEnsembleError(
                f"replay drift at instance {self.cursor}: trace recorded "
                f"args {list(result.args)} but replay derived "
                f"{list(tokens)}; drivers must be deterministic"
            )
        self.cursor += 1
        return result


class _Sequential:
    """Sequential-mode launcher: every call executes immediately."""

    def __init__(self, execute: Callable[[list[str]], tuple[int, str]]):
        self.execute = execute
        self.results: list[AutoRunResult] = []

    def __call__(self, *args, **kwargs) -> AutoRunResult:
        tokens = _normalize_call(args, kwargs)
        exit_code, stdout = self.execute(list(tokens))
        result = AutoRunResult(
            index=len(self.results),
            args=tokens,
            exit_code=exit_code,
            stdout=stdout,
        )
        self.results.append(result)
        return result


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


def _resolve_program(app):
    """``app`` may be a registry name, an AppEntry, or a Program/Module."""
    if app is None:
        raise AutoEnsembleError(
            "auto_launch needs an application: pass app=<registry name>, "
            "an AppEntry, or a compiled Program"
        )
    if isinstance(app, str):
        from repro.apps.registry import APPS

        try:
            entry = APPS[app]
        except KeyError:
            raise AutoEnsembleError(
                f"unknown app {app!r}; choices: {sorted(APPS)}"
            ) from None
        return entry.build_program()
    if hasattr(app, "build_program"):
        return app.build_program()
    return app


class EnsembleBackend:
    """Executes one batch of argument vectors as a scheduled campaign.

    ``spec`` is the template every launch is built from: its run options
    (thread limit, step cap, timing, engine, safety mode, fault plan)
    apply as given, and its argument source is replaced by the batch.
    """

    def __init__(
        self,
        app,
        *,
        spec: LaunchSpec = LaunchSpec(),
        devices: int = 1,
        obs=None,
        loader_opts: dict | None = None,
        max_batch: int | None = None,
        retries: int = 2,
    ):
        self.program = _resolve_program(app)
        self.spec = spec
        self.devices = devices
        self.obs = obs
        self.loader_opts = dict(loader_opts or {})
        self.max_batch = max_batch
        self.retries = retries
        self.last_spec: LaunchSpec | None = None
        self.last_result = None

    def __call__(self, batches: list[tuple[str, ...]]) -> list[AutoRunResult]:
        from repro.config import DEFAULT_DEVICE
        from repro.sched import DevicePool, Scheduler

        spec = self.spec.with_instances([list(args) for args in batches])
        self.last_spec = spec
        pool = DevicePool(self.devices, config=DEFAULT_DEVICE)
        kwargs = dict(default_retries=self.retries)
        if self.obs is not None:
            kwargs["obs"] = self.obs
        if self.max_batch is not None:
            kwargs["max_batch"] = self.max_batch
        sched = Scheduler(pool, **kwargs)
        result = sched.run_campaign(
            self.program, spec, loader_opts=self.loader_opts
        )
        self.last_result = result
        ordered = sorted(result.instances, key=lambda o: o.index)
        return [
            AutoRunResult(
                index=o.index,
                args=tuple(o.args),
                exit_code=o.exit_code,
                stdout=o.stdout,
            )
            for o in ordered
        ]


class SequentialBackend:
    """Executes argument vectors one at a time on a single device, each
    under the run options of the template ``spec``.

    A fault plan the spec carries is armed once, for the whole replay,
    as the auto mode's scheduler arms it once per campaign: its schedule
    (``times=``) counts over every run, not per run."""

    def __init__(
        self,
        app,
        *,
        spec: LaunchSpec = LaunchSpec(),
        loader_opts: dict | None = None,
    ):
        from repro.faults.injector import FaultInjector
        from repro.gpu.device import GPUDevice
        from repro.host.loader import Loader

        device = GPUDevice()
        plan = spec.resolve_fault_plan()
        if plan is not None:
            device.faults = FaultInjector(plan)
            device.faults.attach_sinks(device.tracer, device.metrics)
            spec = replace(spec, fault_plan=None)
        self.loader = Loader(_resolve_program(app), device, **(loader_opts or {}))
        self.spec = spec

    def execute_one(self, args: list[str]) -> tuple[int, str]:
        result = self.loader.run(self.spec.with_instances([list(args)]))
        return result.exit_code, result.stdout


# ---------------------------------------------------------------------------
# The front door
# ---------------------------------------------------------------------------


def _check_classifications(
    fn, classifications: list[LoopClassification]
) -> None:
    if not classifications:
        raise AutoEnsembleError(
            f"driver {fn.__name__}() contains no for loop to auto-ensemble"
        )
    findings: list[Diagnostic] = []
    for cls in classifications:
        findings.extend(
            d for d in cls.diagnostics if d.severity >= Severity.ERROR
        )
    if findings:
        lines = "\n".join("  " + d.format() for d in findings)
        raise AutoEnsembleError(
            f"driver {fn.__name__}() is not auto-ensemblable: "
            f"{len(findings)} loop-carried dependence finding(s)\n{lines}",
            diagnostics=findings,
        )


def analyze(fn) -> list[LoopClassification]:
    """The analyzer half of :func:`auto_launch`, without executing."""
    return analyze_driver(fn)


def auto_launch(
    fn: Callable,
    app=None,
    *,
    spec: LaunchSpec = LaunchSpec(),
    mode: str = "auto",
    devices: int = 1,
    obs=None,
    execute: Callable[[list[tuple[str, ...]]], list[AutoRunResult]] | None = None,
    sequential_execute: Callable[[list[str]], tuple[int, str]] | None = None,
    **loader_opts,
) -> AutoEnsembleOutcome:
    """Prove a driver loop independent, then run it as one ensemble.

    ``fn`` is the driver: a function whose first parameter is the
    launcher and whose body contains an ordinary ``for`` loop calling it
    once (or more) per iteration.  ``app`` names the application every
    ``run(...)`` call launches (registry name, AppEntry, or Program).
    ``spec`` is the template :class:`~repro.host.launch.LaunchSpec` whose
    run options every launch uses; its argument source is ignored (the
    recorded calls replace it).

    ``mode="auto"`` (default) analyzes, traces, launches through
    :mod:`repro.sched`, and replays.  ``mode="sequential"`` executes each
    call immediately on one device — the differential oracle.  Custom
    ``execute`` / ``sequential_execute`` callables replace the device
    execution (used by the property tests); ``**loader_opts`` forward to
    the loaders (``heap_bytes``, ``opt_level``, ``mapping``, ...).

    Raises :class:`~repro.errors.AutoEnsembleError` with the analyzer's
    structured diagnostics when the loop has loop-carried dependences.
    """
    unknown = set(loader_opts) - set(_LOADER_OPT_KEYS)
    if unknown:
        raise AutoEnsembleError(
            f"unknown auto_launch option(s) {sorted(unknown)}; loader "
            f"options are {sorted(_LOADER_OPT_KEYS)}, and run options "
            "go on the template spec=LaunchSpec(...)"
        )
    if mode not in ("auto", "sequential"):
        raise AutoEnsembleError(
            f"mode must be 'auto' or 'sequential', not {mode!r}"
        )

    from repro.errors import AnalysisError

    try:
        classifications = analyze_driver(fn)
    except AnalysisError as exc:
        raise AutoEnsembleError(str(exc)) from exc
    _check_classifications(fn, classifications)

    if mode == "sequential":
        if sequential_execute is None:
            sequential_execute = SequentialBackend(
                app, spec=spec, loader_opts=loader_opts
            ).execute_one
        launcher = _Sequential(sequential_execute)
        value = fn(launcher)
        return AutoEnsembleOutcome(
            value=value,
            instances=launcher.results,
            mode="sequential",
            classifications=classifications,
        )

    # --- trace ----------------------------------------------------------
    recorder = _Recorder()
    fn(recorder)

    # --- launch ---------------------------------------------------------
    if execute is None:
        execute = EnsembleBackend(
            app, spec=spec, devices=devices, obs=obs, loader_opts=loader_opts
        )
    results = execute(list(recorder.calls)) if recorder.calls else []
    if len(results) != len(recorder.calls):
        raise AutoEnsembleError(
            f"the execute backend returned {len(results)} results for "
            f"{len(recorder.calls)} recorded instances"
        )

    # --- replay ---------------------------------------------------------
    player = _Player(results)
    value = fn(player)
    if player.cursor != len(results):
        raise AutoEnsembleError(
            f"replay drift: the trace recorded {len(results)} run() calls "
            f"but replay issued {player.cursor}; drivers must be "
            "deterministic"
        )
    return AutoEnsembleOutcome(
        value=value,
        instances=results,
        mode="ensemble",
        classifications=classifications,
        spec=getattr(execute, "last_spec", None),
        campaign=getattr(execute, "last_result", None),
    )


def ensemble(fn: Callable | None = None, /, **options):
    """Decorator form of :func:`auto_launch`.

    Bare (``@ensemble``) or configured (``@ensemble(app="stencil",
    devices=2)``).  Calling the decorated function runs the auto-ensemble
    and returns an :class:`AutoEnsembleOutcome`; per-call keyword
    overrides are merged over the decoration-time options.  The original
    driver stays available as ``.driver``.
    """

    def wrap(driver: Callable):
        import functools

        @functools.wraps(driver)
        def launch(**overrides) -> AutoEnsembleOutcome:
            merged = dict(options)
            merged.update(overrides)
            app = merged.pop("app", None)
            return auto_launch(driver, app, **merged)

        launch.driver = driver
        launch.options = dict(options)
        return launch

    if fn is not None:
        if not callable(fn):
            raise AutoEnsembleError(
                "@ensemble takes keyword options only, e.g. "
                "@ensemble(app='stencil')"
            )
        return wrap(fn)
    return wrap


__all__ = [
    "AutoEnsembleOutcome",
    "AutoRunResult",
    "EnsembleBackend",
    "SequentialBackend",
    "analyze",
    "auto_launch",
    "ensemble",
]
