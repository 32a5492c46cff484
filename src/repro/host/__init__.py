"""Host-side components: loaders, RPC service, argument handling.

* :class:`~repro.host.loader.Loader` — this paper's enhanced loader:
  reads a command-line-arguments file (one line per instance), maps each
  instance to a team via ``target teams distribute``, and launches all of
  them in a single kernel (``run_ensemble``).  At one instance
  (``run``) it is the main wrapper of the original direct-compilation
  work [26].
* :class:`~repro.host.ensemble_loader.EnsembleLoader` — the same loader
  under the paper's name, with a larger default device heap.
* :mod:`~repro.host.rpc_host` — the host RPC endpoint servicing
  device-side ``printf``/file-I/O calls, and the one ``rpc.reply`` fault
  rule both RPC transports apply.
* :mod:`~repro.host.argfile` / :mod:`~repro.host.argscript` — the argument
  file format of §3.2 and the script language its future-work section
  proposes.
* :mod:`~repro.host.mapping` — instance-to-team mapping strategies,
  including the packed ``(N/M, M, 1)`` mapping of §3.1.
"""

from repro.host.loader import Loader, RunResult
from repro.host.launch import LaunchSpec
from repro.host.ensemble_loader import EnsembleLoader, EnsembleResult, InstanceOutcome
from repro.host.argfile import (
    parse_argument_file,
    parse_argument_text,
    resolve_arg_source,
)
from repro.host.argscript import expand_argument_script
from repro.host.results import EnsembleOutcome, Observables, OutcomeMixin
from repro.host.rpc_host import RPCHost
from repro.host.mapping import (
    MappingStrategy,
    OneInstancePerTeam,
    PackedMapping,
)

__all__ = [
    "Loader",
    "RunResult",
    "LaunchSpec",
    "EnsembleLoader",
    "EnsembleResult",
    "InstanceOutcome",
    "parse_argument_file",
    "parse_argument_text",
    "resolve_arg_source",
    "expand_argument_script",
    "EnsembleOutcome",
    "Observables",
    "OutcomeMixin",
    "RPCHost",
    "MappingStrategy",
    "OneInstancePerTeam",
    "PackedMapping",
]
