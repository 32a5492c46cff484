"""Enhanced ensemble loader — the paper's contribution (§3).

Extends the base loader with the three command-line options of §3.2::

    -f <file>   argument file: one line of command-line args per instance
    -n <N>      number of instances launched simultaneously
    -t <T>      per-instance thread limit

Every instance becomes one iteration of a ``target teams distribute`` loop
(Figure 4): ``Ret[I] = __user_main(Argc[I], &Argv[I][0])``.  The default
mapping executes one instance per team (teams == instances, as in the
evaluation); a :class:`~repro.host.mapping.PackedMapping` strategy packs M
instances per team using the ``(N/M, M, 1)`` geometry of §3.1.

The launch itself is :meth:`repro.host.loader.Loader.run_ensemble`, the
one launch sequence of the host: :class:`EnsembleLoader` adds no code
path of its own, only a larger default device heap for ensembles.
"""

from __future__ import annotations

from repro.host.loader import EnsembleResult, InstanceOutcome, Loader


class EnsembleLoader(Loader):
    """The enhanced loader: ``./user_app_gpu -f args.txt -n N -t T``."""

    DEFAULT_HEAP_BYTES = 64 * 1024 * 1024


__all__ = ["EnsembleLoader", "EnsembleResult", "InstanceOutcome"]
