"""Device pass pipeline ("custom link-time optimization" of the paper).

The direct GPU compilation toolchain of [26]/[27] augments Clang with
link-time passes that (a) treat all user code as device code, (b) rename the
user's ``main``, (c) auto-generate RPC stubs for host-only calls, and
(d) aggressively optimize the merged device image.  The passes here
implement the same contracts over our IR:

* :func:`~repro.passes.declare_target.declare_target_pass`
* :func:`~repro.passes.rename_main.rename_main_pass`
* :func:`~repro.passes.rpc_lowering.rpc_lowering_pass`
* :func:`~repro.passes.inliner.inline_all_pass` (mandatory full inlining;
  the SIMT interpreter executes call-free kernels)
* :func:`~repro.passes.constfold.constfold_pass`,
  :func:`~repro.passes.dce.dce_pass`,
  :func:`~repro.passes.cfg_simplify.cfg_simplify_pass`
* :func:`~repro.passes.globals_to_shared.globals_to_shared_pass`
  (the §3.3 isolation mitigation)
* :func:`~repro.passes.barrier_elim.redundant_barrier_elim_pass`,
  :func:`~repro.passes.alias_opt.alias_dce_pass` (the points-to-driven
  ``-O2`` stage; see ``finalize_executable(opt_level=2)``)

Use :func:`~repro.passes.pipeline.compile_for_device` on a freshly compiled
program module and :func:`~repro.passes.pipeline.finalize_executable` after
the loader has linked in its kernel.
"""

from repro.passes.pass_manager import PassManager
from repro.passes.linker import link_modules
from repro.passes.alias_opt import alias_dce_pass
from repro.passes.barrier_elim import redundant_barrier_elim_pass
from repro.passes.declare_target import declare_target_pass
from repro.passes.rename_main import rename_main_pass, USER_MAIN
from repro.passes.rpc_lowering import rpc_lowering_pass
from repro.passes.inliner import inline_all_pass
from repro.passes.constfold import constfold_pass
from repro.passes.dce import dce_pass
from repro.passes.licm import licm_pass
from repro.passes.cfg_simplify import cfg_simplify_pass
from repro.passes.globals_to_shared import globals_to_shared_pass
from repro.passes.pipeline import (
    DEVICE_PASS_NAMES,
    PIPELINE_VERSION,
    compile_for_device,
    finalize_executable,
    finalize_pass_names,
    pipeline_fingerprint,
)

__all__ = [
    "PassManager",
    "alias_dce_pass",
    "link_modules",
    "redundant_barrier_elim_pass",
    "declare_target_pass",
    "rename_main_pass",
    "USER_MAIN",
    "rpc_lowering_pass",
    "inline_all_pass",
    "constfold_pass",
    "dce_pass",
    "licm_pass",
    "cfg_simplify_pass",
    "globals_to_shared_pass",
    "compile_for_device",
    "finalize_executable",
    "finalize_pass_names",
    "pipeline_fingerprint",
    "DEVICE_PASS_NAMES",
    "PIPELINE_VERSION",
]
