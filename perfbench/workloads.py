"""The benchmark's workloads and the per-layer ledger they fill.

Every workload follows one protocol, driven by ``run.py``:

* ``setup()`` builds what the measured operations need; ``run.py`` times
  it several times per run and ``close()`` releases it in between;
* ``round(ledger)`` runs one campaign round and returns ``(item, wall,
  ref)`` for every operation in it that succeeded: its wall time and the
  reference loop's time around it (:func:`timed`).  An item names an
  operation's inputs, which are the same in every round.  With a
  :class:`Ledger` it also times the layers each operation passes
  through, from the benchmark's side of each layer's public entry point;
* ``check()`` returns the correctness problems seen so far.

Inputs come only from the seed given to the constructor.
"""

from __future__ import annotations

import itertools
import random
import re
import time

from repro.analysis import safety
from repro.apps.registry import APPS
from repro.compilecache import ExecutableCache
from repro.config import DEFAULT_DEVICE, DEFAULT_SIM
from repro.gpu.device import HW_REGS_PER_THREAD, GPUDevice
from repro.host.ensemble_loader import EnsembleLoader
from repro.host.launch import LaunchSpec
from repro.passes.pipeline import compile_for_device, finalize_executable
from repro.runtime.kernel import build_ensemble_kernel, build_single_kernel

THREAD_LIMIT = 32
BACKEND = "compiled"

#: The Figure-6 benchmarks.
FIGURE6_APPS = ("xsbench", "rsbench", "amgmk", "stencil", "pagerank")

#: Per-app inputs for the timed campaign: the Figure-6 harness's workloads
#: shrunk so that one round of the campaign takes a few seconds.
CAMPAIGN_ARGS = {
    "xsbench": ["-g", "256", "-n", "8", "-l", "64"],
    "rsbench": ["-p", "32", "-n", "4", "-l", "64"],
    "amgmk": ["-n", "1024", "-i", "2"],
    "stencil": ["-n", "1024", "-i", "2"],
    "pagerank": ["-n", "2048", "-d", "8", "-i", "1"],
}

#: Smaller inputs for served campaigns, where the serving layer's own
#: costs should stay visible next to execution.
SERVED_ARGS = {
    "pagerank": ["-n", "256", "-d", "8", "-i", "1"],
    "stencil": ["-n", "512", "-i", "1"],
    "rsbench": ["-p", "16", "-n", "2", "-l", "64"],
}

#: Command-line flag -> keyword of the app's CPU reference function.
REFERENCE_KWARGS = {
    "xsbench": {"-g": "gridpoints", "-n": "nuclides", "-l": "lookups"},
    "rsbench": {"-p": "poles", "-n": "nuclides", "-l": "lookups"},
    "amgmk": {"-n": "rows", "-i": "iters"},
    "stencil": {"-n": "points", "-i": "iters"},
    "pagerank": {"-n": "nodes", "-d": "degree", "-i": "iters"},
}

_CHECKSUM = re.compile(r"-?\d+\.\d+")

#: Relative tolerance against the CPU references (the apps print ten
#: decimals; only the order of atomic adds differs from the reference).
REL_TOL = 1e-9


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python loop that uses no code of the repo.

    The machine's speed drifts by up to half again within seconds (other
    tenants of the host); an operation timed between two runs of this loop
    can be expressed in its units, which that drift moves far less.
    """
    t0 = time.perf_counter()
    x = 12345
    slots = {}
    for i in range(20000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        slots[i & 1023] = x
    return time.perf_counter() - t0


def timed(fn):
    """Run ``fn()``; returns ``(result, wall, ref)``, where ``ref`` is the
    mean of the reference loop's time just before and just after."""
    before = reference_seconds()
    t0 = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - t0
    return out, wall, (before + reference_seconds()) / 2


def fresh_compiler() -> None:
    """Forget process-wide compile memos, as a new process would.

    The safety analyzer memoizes certificates by kernel content for the
    life of the process.  Without this, every compile of an app after its
    first would skip the analysis and "cold" would measure a warm path.
    """
    memo = getattr(safety, "_CERT_MEMO", None)
    if memo is not None:
        memo.clear()


def instance_lines(args: dict, app: str, n: int, seed_base: int) -> list:
    """``n`` command lines for ``app``, each with its own data seed."""
    return [list(args[app]) + ["-s", str(seed_base + i)] for i in range(n)]


class Ledger:
    """Time per layer, summed over the traced operations, in units of the
    reference loop (each interval divided by the loop's time around it).

    ``op`` holds the operations' own time; every other entry is the part
    of it spent in one layer.  ``counts`` holds work done per layer.
    """

    def __init__(self) -> None:
        self.time: dict[str, float] = {}
        self.counts: dict[str, int] = {}

    def split(self, op: tuple, rest: str | None = None, **parts: tuple) -> None:
        """Record one operation and the layers it passed through.

        ``op`` and every part are ``(wall, ref)`` pairs from :func:`timed`;
        what the parts leave of the operation goes to layer ``rest``, or
        stays unattributed.
        """
        left = op[0] / op[1]
        self._add("op", left)
        for layer, (wall, ref) in parts.items():
            self._add(layer, wall / ref)
            left -= wall / ref
        if rest is not None:
            self._add(rest, left)

    def _add(self, layer: str, value: float) -> None:
        self.time[layer] = self.time.get(layer, 0.0) + value

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


class Workload:
    """Shared bookkeeping: attempts, failures and output checks."""

    name = ""
    #: How many times ``run.py`` repeats the set-up in one run.
    setup_repeats = 3
    #: Whether a round's operations are all in flight at once.
    concurrent = False

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._expected: dict[tuple, float] = {}

    def _problem(self, msg: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(msg)

    def _reference(self, app: str, line: list) -> float:
        key = (app, tuple(line))
        if key not in self._expected:
            flags = dict(REFERENCE_KWARGS[app], **{"-s": "seed"})
            kwargs = {flags[f]: int(v) for f, v in zip(line[::2], line[1::2])}
            self._expected[key] = APPS[app].reference_fn(**kwargs)
        return self._expected[key]

    def _outputs_ok(self, app: str, outcomes) -> bool:
        """Exit codes and printed checksums against the CPU reference."""
        ok = True
        for o in outcomes:
            found = _CHECKSUM.search(o.stdout)
            expect = self._reference(app, o.args)
            if o.exit_code != 0 or found is None:
                self._problem(f"{app} {o.args}: exit {o.exit_code}: {o.stdout!r}")
                ok = False
            elif abs(float(found.group()) - expect) > REL_TOL * max(1.0, abs(expect)):
                self._problem(
                    f"{app} {o.args}: checksum {found.group()} != reference {expect!r}"
                )
                ok = False
        return ok

    def close(self) -> None:
        """Release what ``setup`` built."""

    def check(self) -> list[str]:
        return self.problems


class Figure6(Workload):
    """The timed Figure-6 campaign on the compiled backend.

    Every Figure-6 app at N = 1, 2 and 4 instances, one team per instance,
    thread limit 32, timing model on, through the direct ensemble loader.
    One operation is one timed ensemble launch; a round is the whole sweep
    in a seeded order.  Set-up compiles every app and runs it once, so
    kernel lowering and code generation happen there.
    """

    name = "figure6"
    counts = (1, 2, 4)
    heap_bytes = 32 * 1024 * 1024

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        base = self.rng.randrange(1, 1 << 20)
        self.lines = {
            app: instance_lines(CAMPAIGN_ARGS, app, max(self.counts), base)
            for app in FIGURE6_APPS
        }
        self.items = [(app, n) for app in FIGURE6_APPS for n in self.counts]
        self.rng.shuffle(self.items)
        self.loaders: dict[str, EnsembleLoader] = {}
        self.cycles: dict[tuple, float] = {}

    def _spec(self, app: str, n: int, timing: bool = True) -> LaunchSpec:
        return LaunchSpec(
            self.lines[app][:n],
            thread_limit=THREAD_LIMIT,
            collect_timing=timing,
            backend=BACKEND,
        )

    def setup(self) -> None:
        fresh_compiler()
        for app in FIGURE6_APPS:
            loader = EnsembleLoader(
                APPS[app].build_program(),
                GPUDevice(DEFAULT_DEVICE, DEFAULT_SIM),
                heap_bytes=self.heap_bytes,
            )
            loader.run_ensemble(self._spec(app, 1))
            self.loaders[app] = loader

    def close(self) -> None:
        self.loaders.clear()

    def round(self, ledger: Ledger | None) -> list[tuple]:
        walls = []
        for app, n in self.items:
            loader = self.loaders[app]
            spec = self._spec(app, n)
            self.attempted += 1
            try:
                run, wall, ref = timed(lambda: loader.run_ensemble(spec))
            except Exception as exc:  # a failed operation must not end the run
                self.failed += 1
                self._problem(f"{app} N={n}: {exc!r}")
                continue
            first = self.cycles.setdefault((app, n), run.cycles)
            ok = self._outputs_ok(app, run.instances)
            if run.cycles != first:
                self._problem(f"{app} N={n}: cycles {run.cycles} != {first}")
                ok = False
            if not ok:
                self.failed += 1
                continue
            walls.append(((app, n), wall, ref))
            if ledger is not None:
                self._split(ledger, loader, app, n, run, (wall, ref))
        return walls

    def _split(self, ledger, loader, app, n, run, op) -> None:
        """Split one timed launch into execution, trace collection and the
        timing model: an untimed twin gives execution, the timing model is
        re-run on the launch's own traces, and trace collection is what
        remains of the timed launch."""
        spec = self._spec(app, n, timing=False)
        twin, *exec_ = timed(lambda: loader.run_ensemble(spec))
        timing, *timing_ = timed(
            lambda: loader.device.timing_model.kernel_time(
                run.launch.traces,
                threads_per_block=THREAD_LIMIT,
                regs_per_thread=HW_REGS_PER_THREAD,
                shared_mem_per_block=loader.image.team_local_size,
            )
        )
        if timing.cycles != run.cycles:
            self._problem(f"{app} N={n}: re-timed {timing.cycles} != {run.cycles}")
        ledger.split(op, rest="trace", exec=exec_, timing=timing_)
        ledger.count("steps", twin.launch.interpreter_steps)

    def check(self) -> list[str]:
        # The Figure-6 shape: an ensemble of N never loses to N single
        # runs and never scales past linear.
        for app in FIGURE6_APPS:
            c1 = self.cycles.get((app, 1))
            for n in self.counts[1:]:
                cn = self.cycles.get((app, n))
                if c1 and cn and not 1.0 <= c1 * n / cn <= n:
                    self._problem(f"{app}: speedup {c1 * n / cn:.3f} at N={n}")
        return self.problems


class ColdCompile(Workload):
    """Cold compiles of the Figure-6 apps.

    One operation builds one app from its DSL source to a finalized,
    certified executable through a fresh ``ExecutableCache``: frontend,
    device passes, kernel wrappers, the optimization pipeline and the
    safety certificates, as the first run of a new process does.  A round
    compiles every app once in a seeded order.  Set-up compiles STREAM,
    which is not measured, so lazy imports happen there.
    """

    name = "cold_compile"
    setup_repeats = 5
    probe_app = "stream"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.order = list(FIGURE6_APPS)
        self.rng.shuffle(self.order)
        self.verify_seed = self.rng.randrange(1, 1 << 20)
        self.proofs: dict[str, tuple] = {}
        self.built: dict[str, object] = {}

    def setup(self) -> None:
        fresh_compiler()
        ExecutableCache().get_or_build(APPS[self.probe_app].build_program())

    def round(self, ledger: Ledger | None) -> list[tuple]:
        walls = []
        for app in self.order:
            fresh_compiler()
            self.attempted += 1
            try:
                entry, wall, ref = timed(
                    lambda: ExecutableCache().get_or_build(APPS[app].build_program())
                )
            except Exception as exc:  # a failed operation must not end the run
                self.failed += 1
                self._problem(f"{app}: {exc!r}")
                continue
            module = entry.module
            proofs = _proof_counts(module)
            first = self.proofs.setdefault(app, proofs)
            if proofs != first:
                self.failed += 1
                self._problem(f"{app}: safety verdicts {proofs} != {first}")
                continue
            self.built[app] = module
            walls.append((app, wall, ref))
            if ledger is not None:
                self._split(ledger, app, (wall, ref))
                ledger.count("proven_sites", proofs[0])
        return walls

    def _split(self, ledger, app, op) -> None:
        """Re-run the compile chain of ``build_executable`` one public step
        at a time.  What the measured compile spends outside these steps
        (source hashing, cache keys) stays unattributed."""
        fresh_compiler()
        module, *frontend = timed(lambda: APPS[app].build_program().compile())
        module, *passes = timed(lambda: _device_passes(module))
        _, *proofs = timed(lambda: safety.stamp_certificates(module))
        ledger.split(op, frontend=frontend, passes=passes, safety=proofs)

    def check(self) -> list[str]:
        # Every compiled executable must run and print the right answer.
        for app, module in self.built.items():
            loader = EnsembleLoader(module, GPUDevice(DEFAULT_DEVICE, DEFAULT_SIM))
            lines = instance_lines(CAMPAIGN_ARGS, app, 1, self.verify_seed)
            run = loader.run_ensemble(
                LaunchSpec(lines, thread_limit=THREAD_LIMIT, backend=BACKEND,
                           collect_timing=False)
            )
            self._outputs_ok(app, run.instances)
        return self.problems


def _device_passes(module):
    """The passes of ``build_executable`` between frontend and safety."""
    module = compile_for_device(module)
    build_single_kernel(module)
    build_ensemble_kernel(module)
    return finalize_executable(module)


def _proof_counts(module) -> tuple:
    """(proven, other) safety verdict counts over a module's kernels."""
    proven = other = 0
    for cert in safety.certificates_for(module).values():
        for proof in cert.sites.values():
            if proof.verdict is safety.Verdict.PROVEN:
                proven += 1
            else:
                other += 1
    return proven, other


class Served(Workload):
    """Campaigns served by a ``CampaignServer`` over a localhost socket.

    Three tenants share a two-device server.  A round submits nine small
    untimed ensembles of two instances each (every tenant runs every
    served app) and waits for all nine results; one operation is one
    campaign, from submit
    to its result.  Set-up starts the server, connects a client and runs
    one campaign per app, so the server's executable cache is warm and
    rounds pass through admission, the scheduler, the devices and the
    wire, not the compiler.
    """

    name = "served"
    concurrent = True
    tenants = ("alice", "bob", "carol")
    devices = 2
    heap_bytes = 1536 * 1024
    instances = 2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        base = self.rng.randrange(1, 1 << 20)
        apps = sorted(SERVED_ARGS)
        # Every tenant submits every app once.  The seed picks the data
        # only: a campaign's latency depends on its place in the queue, and
        # a seeded order would move it more than the serving layer does.
        self.jobs = [
            (
                tenant,
                app,
                instance_lines(SERVED_ARGS, app, self.instances, base + k * self.instances),
            )
            for k, (tenant, app) in enumerate(itertools.product(self.tenants, apps))
        ]
        self.server = None
        self.client = None
        #: The in-process twin of the server, built by the first ledger
        #: split; its programs stay alive so its loaders stay warm.
        self.direct = None
        self.programs = {app: APPS[app].build_program() for app in SERVED_ARGS}
        self.prints: dict[int, list] = {}

    def _spec(self, lines) -> LaunchSpec:
        return LaunchSpec(
            [list(line) for line in lines],
            thread_limit=THREAD_LIMIT,
            collect_timing=False,
        )

    def setup(self) -> None:
        from repro.serve.client import Client
        from repro.serve.harness import ServerThread

        fresh_compiler()
        self.server = ServerThread(devices=self.devices)
        self.server.start()
        self.client = Client(self.server.address)
        warm = [
            self.client.submit(
                app,
                self._spec(instance_lines(SERVED_ARGS, app, 1, 1)),
                loader_opts={"heap_bytes": self.heap_bytes},
            )
            for app in sorted(SERVED_ARGS)
        ]
        for job in warm:
            job.result()

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.direct is not None:
            self.direct.pool.close()
            self.direct = None

    def _submit_all(self, submit) -> list:
        """Submit every job; returns (index, app, handle, submit time)."""
        handles = []
        for i, (tenant, app, lines) in enumerate(self.jobs):
            sent = time.perf_counter()
            handle = submit(tenant, app, lines)
            handles.append((i, app, handle, sent))
        return handles

    def _served_submit(self, tenant, app, lines):
        return self.client.submit(
            app,
            self._spec(lines),
            tenant=tenant,
            loader_opts={"heap_bytes": self.heap_bytes},
        )

    def _served_round(self) -> list:
        done = []
        for i, app, job, sent in self._submit_all(self._served_submit):
            self.attempted += 1
            try:
                result = job.result()
            except Exception as exc:  # a failed operation must not end the run
                self.failed += 1
                self._problem(f"campaign {i} ({app}): {exc!r}")
                continue
            done.append((i, app, result, time.perf_counter() - sent))
        return done

    def round(self, ledger: Ledger | None) -> list[tuple]:
        # The campaigns overlap, so the reference loop brackets the round.
        done, round_wall, ref = timed(self._served_round)
        walls = []
        results = []
        for i, app, result, wall in done:
            prints = _fingerprint(result)
            first = self.prints.setdefault(i, prints)
            ok = self._outputs_ok(app, result.instances)
            if prints != first:
                self._problem(f"campaign {i} ({app}): outputs changed between rounds")
                ok = False
            if not ok:
                self.failed += 1
                continue
            walls.append((i, wall, ref))
            results.append((i, result))
        if ledger is not None:
            self._split(ledger, (round_wall, ref), results)
        return walls

    def _direct_scheduler(self):
        """An in-process scheduler configured like the server's."""
        from repro.sched import DevicePool, Scheduler

        return Scheduler(
            DevicePool(self.devices, config=DEFAULT_DEVICE),
            job_scoped_faults=True,
            cache=ExecutableCache(),
        )

    def _direct_round(self, sched) -> list:
        futures = self._submit_all(
            lambda tenant, app, lines: sched.submit(
                self.programs[app],
                self._spec(lines),
                tenant=tenant,
                loader_opts={"heap_bytes": self.heap_bytes},
            )
        )
        return [(i, future.result()) for i, _, future, _ in futures]

    def _split(self, ledger, op, results) -> None:
        """Split one served round: the same campaigns on an in-process
        scheduler give execution, encoding and decoding the round's
        submissions and results gives the wire, and the rest of the
        served round is the server (socket, admission, event streams)."""
        if self.direct is None:
            self.direct = self._direct_scheduler()
            self._direct_round(self.direct)  # compile off the clock
        _, *exec_ = timed(lambda: self._direct_round(self.direct))
        _, *wire = timed(lambda: self._wire_round(results))
        ledger.split(op, rest="serve", exec=exec_, wire=wire)
        ledger.count("steps", sum(r.steps_used for _, r in results))

    def _wire_round(self, results) -> None:
        """Encode and decode every submission and result of a round."""
        from repro.sched.jobs import JobResult
        from repro.serve import protocol

        for i, result in results:
            tenant, app, lines = self.jobs[i]
            sub = protocol.Submission(
                app=app,
                spec=self._spec(lines),
                tenant=tenant,
                loader_opts={"heap_bytes": self.heap_bytes},
            )
            msg = protocol.decode(protocol.encode({"op": "submit", "submission": sub.to_wire()}))
            protocol.Submission.from_wire(msg["submission"])
            event = protocol.event_msg("result", i, result=result.to_wire())
            JobResult.from_wire(protocol.decode(protocol.encode(event))["result"])

    def check(self) -> list[str]:
        # Served results must be bitwise the direct scheduler's.
        sched = self._direct_scheduler()
        try:
            for i, result in self._direct_round(sched):
                if i in self.prints and _fingerprint(result) != self.prints[i]:
                    self._problem(f"campaign {i}: served result differs from direct")
        finally:
            sched.pool.close()
        return self.problems


def _fingerprint(result) -> list:
    return [(o.index, list(o.args), o.exit_code, o.stdout) for o in result.instances]


WORKLOADS = {w.name: w for w in (Figure6, ColdCompile, Served)}
