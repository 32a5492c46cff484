"""Repository benchmark: timed Figure-6 campaign, cold compiles and served
campaigns, with a per-layer ledger.

Run from the repository root::

    python3 perfbench/run.py --workload figure6 --seed 1 --seconds 10 --trace 0

Workloads: ``figure6``, ``cold_compile``, ``served`` (see README.md).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the same workload with the ledger
armed and reports the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Layers of the ledger, reported as a share of the operations' wall time.
LAYERS = ("frontend", "passes", "safety", "exec", "trace", "timing", "wire", "serve")

#: Work counts of the ledger, reported per round.
COUNTS = ("steps", "proven_sites")

#: Time of ``workloads.reference_seconds`` on an idle core of a 2.1 GHz
#: Xeon, in milliseconds: the scale of the ``ref_ms`` unit.
REF_LOOP_MS = 3.1


def measure(workload, seconds: float, trace: bool) -> dict:
    """Set up, run rounds for ``seconds``, check; returns the result object."""
    from workloads import Ledger, timed

    #: (wall, ref) of each set-up
    setups = []
    ledger = Ledger() if trace else None
    rounds = 0
    #: item -> (wall, ref) of its operations, one per round
    walls: dict = {}
    try:
        for _ in range(workload.setup_repeats):
            workload.close()
            _, wall, ref = timed(workload.setup)
            setups.append((wall, ref))
        deadline = time.perf_counter() + seconds
        while not rounds or time.perf_counter() < deadline:
            for item, wall, ref in workload.round(ledger):
                walls.setdefault(item, []).append((wall, ref))
            rounds += 1
        problems = workload.check()
    finally:
        workload.close()

    # Times at reference speed: a wall time in units of the reference loop
    # timed around it, times the loop's time on an idle core.  Other
    # tenants of the host slow the loop and the operation alike, so this
    # divides out most of their effect; medians over repeats remove the rest.
    typical = [
        statistics.median(REF_LOOP_MS * wall / ref for wall, ref in times)
        for times in walls.values()
    ]
    setup_s = statistics.median(REF_LOOP_MS / 1000.0 * wall / ref for wall, ref in setups)
    if trace:
        total = ledger.time.get("op", 0.0)
        metrics = {
            f"{layer}_pct": (100.0 * ledger.time.get(layer, 0.0) / total, "%")
            for layer in LAYERS
        }
        metrics["unattributed_pct"] = (
            100.0 - sum(v for v, _ in metrics.values()),
            "%",
        )
        metrics["ledger_op_ms"] = (statistics.geometric_mean(typical), "ref_ms")
        for name in COUNTS:
            metrics[name] = (ledger.counts.get(name, 0) // rounds, "count")
    else:
        metrics = {
            # A round's operations run one after another, or all at once.
            "campaign_ms": (
                max(typical) if workload.concurrent else sum(typical),
                "ref_ms",
            ),
            # Every item counts alike, however long it runs.
            "op_ms": (statistics.geometric_mean(typical), "ref_ms"),
            "setup_s": (setup_s, "s"),
        }
    for msg in problems:
        print(f"perfbench: {workload.name}: {msg}", file=sys.stderr)
    return {
        "correct": not problems and workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r} "
            f"(choose from {', '.join(WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    result = measure(workload, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
