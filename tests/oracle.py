"""The differential oracle: the one definition of "the same run".

A :class:`Config` picks one value per equivalence axis; :data:`ORACLE`
(interpreter, -O1, checked, cold compile, direct, no fault plan, one
device, direct RPC transport, the input's own thread limit) is the
reference.
:func:`check` runs an :class:`Input` under the oracle and under each
config, and compares every pair of runs on the :data:`FIELDS` kept
(:data:`PRESERVES`) by every axis on which the two differ.  A new axis
is a ``PRESERVES`` row, not a new fingerprint helper;
``docs/internals.md`` ("Equivalence contract") mirrors the table and
``tests/test_documentation.py`` keeps the two in step.

Programs come from the registry apps (:func:`app_input`), from the
Hypothesis generator (:data:`program_specs`, :func:`render`), which can
plant an argc-dependent trap site (:data:`TRAP_SITES`), and from the
soundness probes (:data:`BOUNDS_PROBES`, :data:`ALIGN_PROBES`): sites
whose ground truth is known by construction, each next to a twin the
safety analyzer must keep proving.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from hypothesis import strategies as st

from repro.analysis.safety import certificates_for
from repro.apps.registry import APPS
from repro.compilecache import ExecutableCache
from repro.config import DEFAULT_DEVICE, DeviceConfig
from repro.errors import DeviceTrap
from repro.faults import FaultInjector
from repro.frontend.dsl import Program
from repro.gpu.device import GPUDevice
from repro.host.launch import LaunchSpec
from repro.host.loader import Loader
from repro.host.results import Observables
from repro.ir.instructions import Opcode
from repro.runtime.backend import SAFETY_MODES
from repro.sched import DevicePool, Scheduler
from tests.util import SMALL_DEVICE, trace_fields

#: The :class:`Observables` fields plus a timed single run's per-team
#: :func:`~tests.util.trace_fields`.
FIELDS = ("instances", "steps", "cycles", "traces", "trap")


@dataclass(frozen=True)
class Config:
    """One value per equivalence axis; the defaults are the oracle."""

    backend: str = "interp"
    opt_level: int = 1
    safety_mode: str = "checked"
    cache: bool = False  # load through the shared ExecutableCache
    served: bool = False  # submit through a campaign server
    plan: str | None = None  # a fault plan the run recovers from
    devices: int = 1
    transport: str = "direct"  # the loader's RPC transport
    thread_limit: int | None = None  # -t of the launch; None: the input's

    def diff(self, other: "Config") -> tuple[str, ...]:
        """The axes on which ``self`` and ``other`` differ."""
        return tuple(
            f.name
            for f in dataclasses.fields(self)
            if getattr(self, f.name) != getattr(other, f.name)
        )

    def __repr__(self) -> str:
        axes = ", ".join(f"{a}={getattr(self, a)!r}" for a in self.diff(ORACLE))
        return f"Config({axes})"


#: Pinned to the interpreter, which is the specification: the oracle
#: does not follow :data:`repro.runtime.backend.DEFAULT_BACKEND`.
ORACLE = Config(backend="interp")

#: The compiled backend in every safety mode at -O1 and -O2 (one shared
#: executable per level through the cache), plus the interpreter at -O2.
SAFETY_MATRIX = [Config(opt_level=2)] + [
    Config("compiled", o, m, cache=True) for o in (1, 2) for m in SAFETY_MODES
]

#: The fields each axis keeps.  -O2 legitimately moves steps and cycles;
#: a campaign result carries no traces; the device count and a recovered
#: fault plan promise the answers, not the time.  The RPC transport
#: moves host calls through a ring buffer and a host service thread
#: instead of a direct call, which no observable may see.  The thread
#: limit repartitions worksharing: steps, cycles and traces move, and a
#: trap names the team and thread that hit it.  Its row holds for
#: race-free programs only; one whose iterations read each other's
#: writes may answer differently at another thread limit.
PRESERVES = {
    "backend": FIELDS,
    "safety_mode": FIELDS,
    "cache": FIELDS,
    "opt_level": ("instances", "trap"),
    "served": ("instances", "steps", "cycles"),
    "plan": ("instances",),
    "devices": ("instances",),
    "transport": FIELDS,
    "thread_limit": ("instances",),
}


def preserved(a: Config, b: Config) -> tuple[str, ...]:
    """Fields that runs under ``a`` and ``b`` must agree on."""
    keep = set(FIELDS).intersection(*(PRESERVES[x] for x in a.diff(b)))
    return tuple(f for f in FIELDS if f in keep)


@dataclass(frozen=True)
class Input:
    """A program plus one argv (run through a :class:`Loader`) or a
    :class:`LaunchSpec` (run through a :class:`Scheduler`; the only kind
    served and multi-device configs apply to).  ``thread_limit`` and
    ``timed`` apply to an argv; a spec carries its own.  A config that
    sets a thread limit replaces the input's, argv or spec."""

    program: Program
    argv: tuple[str, ...] = ()
    spec: LaunchSpec | None = None
    device: DeviceConfig = SMALL_DEVICE
    heap_bytes: int = 1 << 20
    thread_limit: int = 32
    timed: bool = False
    allow_unsafe: bool = False


@dataclass
class Run:
    """One run: its comparable fields, plus the loaded module (argv
    inputs) or the scheduler's stats summary and pool labels (spec
    inputs)."""

    obs: Observables
    traces: list | None = None
    module: object = None
    stats: dict | None = None
    labels: list | None = None

    def field(self, name: str):
        return self.traces if name == "traces" else getattr(self.obs, name)


#: Retries granted to campaigns: enough for every recovered plan.
RETRIES = 4

def run(inp: Input, cfg: Config, cache: ExecutableCache | None = None) -> Run:
    """Run ``inp`` under ``cfg``; ``cache`` serves ``cfg.cache`` runs."""
    if inp.spec is not None:
        return _run_spec(inp, cfg, cache if cfg.cache else None)
    assert not cfg.served and cfg.devices == 1, f"{cfg} needs a LaunchSpec"
    return _run_argv(inp, cfg, cache if cfg.cache else None)


def _run_argv(inp: Input, cfg: Config, cache) -> Run:
    loader = Loader(
        inp.program,
        GPUDevice(inp.device),
        heap_bytes=inp.heap_bytes,
        opt_level=cfg.opt_level,
        rpc_transport=cfg.transport,
        allow_unsafe=inp.allow_unsafe,
        cache=cache,
    )
    if cfg.plan is not None:
        loader.device.faults = FaultInjector(cfg.plan)
    try:
        res = loader.run(
            LaunchSpec(
                [list(inp.argv)],
                thread_limit=cfg.thread_limit or inp.thread_limit,
                collect_timing=inp.timed,
                backend=cfg.backend,
                safety_mode=cfg.safety_mode,
            )
        )
    except DeviceTrap as exc:
        return Run(Observables(trap=str(exc)), module=loader.module)
    traces = [trace_fields(t) for t in res.launch.traces] if inp.timed else None
    return Run(Observables.of(res), traces, module=loader.module)


def _run_spec(inp: Input, cfg: Config, cache) -> Run:
    spec = dataclasses.replace(
        inp.spec,
        thread_limit=cfg.thread_limit or inp.spec.thread_limit,
        backend=cfg.backend,
        safety_mode=cfg.safety_mode,
    )
    opts = {"heap_bytes": inp.heap_bytes, "opt_level": cfg.opt_level}
    if cfg.served:
        assert cfg.transport == ORACLE.transport, f"{cfg}: not on the wire"
        from repro.serve.client import Client
        from repro.serve.harness import ServerThread

        with ServerThread(
            devices=cfg.devices,
            device_config=inp.device,
            apps={"oracle": inp.program},
            cache=False if cache is None else cache,
        ) as st, Client(st.address) as client:
            spec = dataclasses.replace(spec, fault_plan=cfg.plan)
            job = client.submit("oracle", spec, retries=RETRIES, loader_opts=opts)
            result = job.result()
            sched = st.server.scheduler
            stats, labels = sched.stats.summary(), sched.pool.labels
        return Run(Observables.of(result), stats=stats, labels=labels)
    opts["rpc_transport"] = cfg.transport
    pool = DevicePool(cfg.devices, config=inp.device)
    try:
        sched = Scheduler(
            pool, faults=cfg.plan, default_retries=RETRIES, cache=cache
        )
        result = sched.submit(inp.program, spec, loader_opts=opts).result()
        return Run(
            Observables.of(result), stats=sched.stats.summary(), labels=pool.labels
        )
    finally:
        pool.close()


def check(
    inp: Input,
    configs,
    *,
    cache: ExecutableCache | None = None,
    runs: dict[Config, Run] | None = None,
) -> dict[Config, Run]:
    """Run the oracle and every config on ``inp``; assert that each pair
    of runs agrees on the fields both configs' axes preserve.  ``cache``
    (a fresh one by default) serves the ``cache=True`` configs; ``runs``
    are runs of ``inp`` already made, compared instead of rerun.
    Returns every run, the oracle's under :data:`ORACLE`."""
    cache = ExecutableCache() if cache is None else cache
    done = dict(runs or {})
    checked: dict[Config, Run] = {}
    for cfg in (ORACLE, *configs):
        got = done[cfg] if cfg in done else run(inp, cfg, cache)
        for ref, want in checked.items():
            for name in preserved(cfg, ref):
                a, b = got.field(name), want.field(name)
                assert a == b, (
                    f"{cfg} vs {ref}: {name!r} differs\n"
                    f"  got:  {repr(a)[:300]}\n  want: {repr(b)[:300]}"
                )
        checked[cfg] = got
    return checked


def app_input(name, argv=None, *, timed=False, device=DEFAULT_DEVICE) -> Input:
    """A registry app on ``argv`` (its default args when omitted)."""
    entry = APPS[name]
    argv = tuple(entry.default_args()) if argv is None else argv
    return Input(
        entry.build_program(),
        argv,
        device=device,
        heap_bytes=32 << 20,
        thread_limit=64,
        timed=timed,
    )


def source_input(src: str, **kw) -> Input:
    """DSL source text (e.g. from :func:`render`) as an oracle input."""
    return Input(Program.from_source(src, name="equiv"), **kw)


#: Programs in the shape -O2's interprocedural stage was built for.
program_specs = st.tuples(
    st.integers(8, 48),  # buffer length
    st.integers(1, 9),  # fill multiplier
    st.integers(0, 7),  # fill offset
    st.booleans(),  # explicit barrier after the parallel fill
    st.booleans(),  # write (but never read) a private scratch buffer
    st.booleans(),  # second worksharing pass doubling the buffer
    st.booleans(),  # print the result over RPC
)

#: Trap sites for the parallel fill.  Each depends on ``argc``, so the
#: launch gate cannot DISPROVE it, and fires when ``argc == 1`` (an empty
#: argv): a division by ``i - argc*k``, an index below the null guard,
#: and an index past the end of a :data:`TRAP_DEVICE`.
TRAP_SITES = {
    "div": "        buf[i] = buf[i] // (i - argc * {k})",
    "null": "        buf[i] = buf[i - argc * 1099511627776]",
    "end": "        buf[i + argc * 2097152] = i",
}

#: 4 MiB of device memory, so the ``end`` site's 16 MiB offset traps
#: (writes beyond the heap but inside device memory do not).
TRAP_DEVICE = DeviceConfig(global_mem_bytes=4 << 20)


def render(spec, trap: str | None = None) -> str:
    """DSL source for a :data:`program_specs` draw, with an optional
    :data:`TRAP_SITES` site."""
    n, mul, off, barrier, scratch, second_pass, do_print = spec
    lines = [
        "def main(argc: i64, argv: ptr_ptr) -> i64:",
        f"    buf = malloc_i64({n})",
        f"    for i in dgpu.parallel_range({n}):",
        f"        buf[i] = i * {mul} + {off}",
    ]
    if trap is not None:
        lines.append(TRAP_SITES[trap].format(k=off))
    if barrier:
        lines.append("    dgpu.barrier()")
    if scratch:
        lines += [
            f"    scratch = malloc_i64({n})",
            f"    for i in dgpu.parallel_range({n}):",
            "        scratch[i] = buf[i] * 3",
        ]
    if second_pass:
        if barrier:
            lines.append("    dgpu.barrier()")
        lines += [
            f"    for i in dgpu.parallel_range({n}):",
            "        buf[i] = buf[i] + buf[i]",
        ]
    lines += [
        "    total = malloc_i64(1)",
        "    total[0] = 0",
        f"    for j in range({n}):",
        "        total[0] = total[0] + buf[j]",
    ]
    if do_print:
        lines.append('    printf("sum %d\\n", total[0])')
    lines.append("    return total[0] & 255")
    return "\n".join(lines)


#: Soundness probes for the bounds proofs: name -> (out-of-range, twin),
#: each a ``(loop, access)`` pair rendered by :func:`render_probe`.  The
#: out-of-range load reads one element past either end of an
#: ``n``-element buffer; its twin stays inside.  ``n`` is
#: :data:`PROBE_N`, so ``8 * n`` bytes fill whole 256-byte malloc blocks
#: and one element past the request is also past the block, the extent
#: the analyzer checks against.
BOUNDS_PROBES = {
    "index+1": (
        ("dgpu.parallel_range({n})", "buf[i + 1]"),
        ("dgpu.parallel_range({n})", "buf[i]"),
    ),
    "index-1": (
        ("dgpu.parallel_range({n})", "buf[i - 1]"),
        ("dgpu.parallel_range({n})", "buf[{n} - 1 - i]"),
    ),
    "parallel_range n+1": (
        ("dgpu.parallel_range({n} + 1)", "buf[i]"),
        ("dgpu.parallel_range({n})", "buf[i]"),
    ),
    "range n+1": (
        ("range({n} + 1)", "buf[i]"),
        ("range({n})", "buf[i]"),
    ),
}

#: Soundness probes for the alignment proofs: name -> (probe line, the
#: value it adds to ``out``).  The line's i64 access ``buf[1]`` moves at
#: the IR level (the DSL has no byte-offset pointer cast) by
#: :data:`MISALIGNED_BY` bytes, or for the twin by 8 (one element),
#: which stays aligned and in bounds.
ALIGN_PROBES = {
    "load": ("v = buf[1]", "v"),
    "store": ("buf[1] = 7", "1"),
}
MISALIGNED_BY = 4

#: A multiple of 32, so an ``i64`` buffer of this length is whole malloc
#: blocks.
PROBE_N = 32

_PROBE = """\
def main(argc: i64, argv: ptr_ptr) -> i64:
    buf = malloc_i64({n})
    out = malloc_i64({n})
    for i in dgpu.parallel_range({n}):
        buf[i] = i * 3 + 1
        out[i] = 0
    dgpu.barrier()
    for i in {loop}:
        {line}  # probe
        out[i % {n}] = out[i % {n}] + {value}
    dgpu.barrier()
    total = malloc_i64(1)
    total[0] = 0
    for j in range({n}):
        total[0] = total[0] + out[j] * (j + 1)
    return total[0] & 255
"""

#: The probe line's 1-based line number, which source locations carry.
PROBE_LINE = 1 + _PROBE.splitlines().index("        {line}  # probe")


class ShiftedProgram(Program):
    """A program whose probe-line memory access moves by ``shift`` bytes
    when compiled."""

    shift = 0

    def compile(self):
        module = super().compile()
        access = (Opcode.LOAD, Opcode.STORE)
        for instr in module.get_function("main").iter_instrs():
            loc = instr.meta.get("loc")
            if instr.op in access and loc and loc[0] == PROBE_LINE:
                instr.offset += self.shift
        return module


def render_probe(loop: str, line: str, value: str = "v") -> str:
    """DSL source with ``line`` on :data:`PROBE_LINE` inside ``loop``,
    each iteration adding ``value`` to ``out``."""
    n = PROBE_N
    return _PROBE.format(
        n=n, loop=loop.format(n=n), line=line.format(n=n), value=value
    )


def bounds_probe(name: str, twin: bool = False) -> Input:
    """The out-of-range load of :data:`BOUNDS_PROBES` ``name``, or its
    twin, as an oracle input."""
    loop, access = BOUNDS_PROBES[name][twin]
    return source_input(render_probe(loop, f"v = {access}"))


def align_probe(name: str, twin: bool = False) -> Input:
    """The misaligned access of :data:`ALIGN_PROBES` ``name``, or its
    aligned twin, as an oracle input (``allow_unsafe``: a statically
    misaligned site is DISPROVEN, which the loader otherwise refuses)."""
    prog = ShiftedProgram.from_source(
        render_probe("range(1)", *ALIGN_PROBES[name]), name="probe"
    )
    prog.shift = 8 if twin else MISALIGNED_BY
    return Input(prog, allow_unsafe=True)


def probe_sites(module) -> list:
    """The :class:`~repro.analysis.safety.SiteProof` of every memory site
    on :data:`PROBE_LINE`, over every kernel of a loaded module."""
    return [
        proof
        for cert in certificates_for(module).values()
        for proof in cert.mem_sites()
        if proof.loc and proof.loc[0] == PROBE_LINE
    ]
