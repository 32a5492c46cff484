"""Experiment harness reproducing the paper's evaluation (§4).

* :mod:`~repro.harness.paper_data` — digitized reference series of
  Figure 6(a)/(b) and the in-text claims;
* :mod:`~repro.harness.experiment` — the scaling experiment: run N
  instances at a thread limit, compute ``S(N) = T1*N/TN``;
* :mod:`~repro.harness.figure6` — regenerates both panels of Figure 6
  (also a CLI: ``repro-figure6 --thread-limit 32``);
* :mod:`~repro.harness.report` — table/CSV rendering and paper-vs-measured
  comparison;
* :mod:`~repro.harness.validate` — every registry app's checksum against
  its CPU reference;
* :mod:`~repro.harness.profile` — nvprof-style report over a launch's
  traces;
* :mod:`~repro.harness.ablation` — mechanism ablations (coalescing, DRAM
  row locality, L2);
* :mod:`~repro.harness.gp` — GP-style many-variant campaign through the
  compile cache;
* :mod:`~repro.harness.bench` — the one gate harness: interp vs compiled,
  timed vs untimed, checked vs unchecked and direct vs served, each as
  interleaved pairs, plus cold vs warm compile walls, with a ratio-based
  regression gate against the committed ``BENCH_interpreter.json``.
"""

from repro.harness.experiment import ScalingResult, ScalingRow, run_scaling
from repro.harness.figure6 import FIGURE6_WORKLOADS, run_figure6
from repro.harness.paper_data import PAPER_FIG6, PAPER_HEADLINE_SPEEDUP

__all__ = [
    "ScalingResult",
    "ScalingRow",
    "run_scaling",
    "run_figure6",
    "FIGURE6_WORKLOADS",
    "PAPER_FIG6",
    "PAPER_HEADLINE_SPEEDUP",
]
