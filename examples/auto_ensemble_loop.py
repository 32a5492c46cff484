#!/usr/bin/env python
"""Auto-ensemble a natural Python driver loop — no argument file, no
LaunchSpec, no loader in user code.

The paper's contract asks the user to collect every instance's command
line into an argument file up front (Figure 5b).  This example keeps the
code a plain sequential sweep — an ordinary ``for cfg in configs:`` loop
calling ``run(cfg)`` — and lets the stack do the rest:

1. :mod:`repro.analysis.driverdep` *proves* the loop's iterations
   independent (the only cross-iteration state is the ``checksums``
   append and the ``failures`` counter, both provable reductions);
2. the loop is traced once, each ``run(...)`` recording one instance;
3. the recorded batch launches as one ensemble through ``repro.sched``;
4. the loop replays with the real results in iteration order, so
   ``checksums``/``failures`` are bitwise-identical to sequential
   execution.

The same driver runs under both modes below; the example asserts the
results match exactly.

Run:  python examples/auto_ensemble_loop.py
CLI:  python -m repro.host.cli --app stencil --auto examples/auto_ensemble_loop.py -t 64
Lint: python -m repro.tools.lint --driver examples/auto_ensemble_loop.py
"""

from repro import LaunchSpec
from repro.frontend.autoensemble import auto_launch

#: Run options of every launch; the driver supplies the instances.
RUN = LaunchSpec(thread_limit=64, collect_timing=False)


def driver(run):
    """An ordinary sequential sweep over stencil configurations."""
    configs = [["-n", "1024", "-i", "2", "-s", str(seed)] for seed in range(1, 7)]
    checksums = []
    failures = 0
    for cfg in configs:
        r = run(cfg)
        checksums.append(r.stdout)
        failures += r.exit_code
    return checksums, failures


def main() -> None:
    ensemble = auto_launch(driver, app="stencil", spec=RUN)
    print(f"mode={ensemble.mode}: {ensemble.num_instances} instances")
    verdicts = [
        f"  loop at line {cls.loop.node.lineno}: safe={cls.safe} ("
        + ", ".join(f"{k}={n}" for k, n in sorted(cls.summary().items()))
        + ")"
        for cls in ensemble.classifications
    ]
    print("\n".join(verdicts))
    checksums, failures = ensemble.value
    print("\n".join("  " + line.strip() for line in checksums))
    print(f"  failures: {failures}")

    sequential = auto_launch(driver, app="stencil", mode="sequential", spec=RUN)
    assert sequential.value == ensemble.value, "ensemble deviated from sequential"
    print("sequential replay: bitwise-identical driver value")


if __name__ == "__main__":
    main()
