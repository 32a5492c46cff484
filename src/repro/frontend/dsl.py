"""Program container and the ``dgpu`` device-intrinsics namespace.

A :class:`Program` collects device functions (plain Python functions written
in the restricted subset), module-level globals, and host-extern
declarations, then compiles everything to one IR module:

.. code-block:: python

    from repro.frontend import Program, dgpu, i64, ptr_ptr

    prog = Program("myapp")
    N = 1024

    @prog.device
    def work(x: i64) -> i64:
        return x * 2

    @prog.main
    def main(argc: i64, argv: ptr_ptr) -> i64:
        total = 0
        for i in dgpu.parallel_range(N):
            total = total  # ...
        return 0

    module = prog.compile()

``dgpu`` is purely symbolic: its attributes are recognized by the compiler
inside device code and have no host-side behaviour (calling them from normal
Python raises, to catch accidental host execution early).
"""

from __future__ import annotations

import textwrap
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import FrontendError, LinkError
from repro.frontend import dtypes
from repro.frontend.dtypes import DType, DT_F64, DT_I64
from repro.ir.module import GlobalVar, Module
from repro.ir.types import MemType


class _IntrinsicMarker:
    """Placeholder returned for ``dgpu.<name>``; never executable on host."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __call__(self, *args, **kwargs):
        raise RuntimeError(
            f"dgpu.{self.name} is a device intrinsic; it can only appear inside "
            "device functions compiled by repro (it was called on the host)"
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"<dgpu.{self.name}>"


class _DgpuNamespace:
    """The symbolic device-intrinsics namespace (singleton ``dgpu``)."""

    def __getattr__(self, name: str) -> _IntrinsicMarker:
        if name.startswith("__"):
            raise AttributeError(name)
        return _IntrinsicMarker(name)


dgpu = _DgpuNamespace()


_DTYPE_TO_MEMTYPE = {
    "i64": MemType.I64,
    "f64": MemType.F64,
    "i32": MemType.I32,
    "f32": MemType.F32,
    "i8": MemType.I8,
}


def _as_memtype(dtype) -> MemType:
    if isinstance(dtype, MemType):
        return dtype
    if isinstance(dtype, str) and dtype in _DTYPE_TO_MEMTYPE:
        return _DTYPE_TO_MEMTYPE[dtype]
    if isinstance(dtype, DType) and not dtype.is_ptr:
        return MemType.F64 if dtype.is_float else MemType.I64
    raise TypeError(f"cannot interpret {dtype!r} as a device memory type")


@dataclass
class SourceFunction:
    """A registered-but-not-yet-compiled device function."""

    pyfunc: Callable
    name: str
    is_main: bool = False
    #: Source of a function built by :meth:`Program.from_source`.
    text: str | None = None

    @property
    def source(self) -> str:
        import inspect

        if self.text is not None:
            return self.text
        return textwrap.dedent(inspect.getsource(self.pyfunc))


class Program:
    """A user application: device functions + globals, compiled to a Module.

    Parameters
    ----------
    name:
        Module name (informational).
    link_libc:
        Link the partial device libc (strlen/atoi/atof/malloc/...) into the
        compiled module, mirroring the partial libc of the direct-compilation
        framework (Figure 2 of the paper).  The libc module itself is built
        with ``link_libc=False``.
    """

    def __init__(self, name: str, *, link_libc: bool = True):
        self.name = name
        self.link_libc = link_libc
        self.functions: dict[str, SourceFunction] = {}
        self.globals: dict[str, GlobalVar] = {}
        self.extern_host: set[str] = set()

    @classmethod
    def from_source(
        cls, text: str, *, name: str = "program", link_libc: bool = True
    ) -> "Program":
        """A program whose ``main`` is the device function in ``text``
        (generated code, which has no file for :func:`inspect.getsource`);
        ``text`` sees the frontend's type names and ``dgpu``."""
        text = textwrap.dedent(text)
        ns = {k: v for k, v in vars(dtypes).items() if isinstance(v, DType)}
        ns["dgpu"] = dgpu
        exec(text, ns)  # noqa: S102 - program text supplied by the caller
        prog = cls(name, link_libc=link_libc)
        prog.functions["main"] = SourceFunction(
            ns["main"], "main", is_main=True, text=text
        )
        return prog

    # ------------------------------------------------------------------
    # registration decorators
    # ------------------------------------------------------------------
    def device(self, pyfunc: Callable) -> Callable:
        """Register a device function (kept callable on host for reference)."""
        self._register(pyfunc, pyfunc.__name__, is_main=False)
        return pyfunc

    def main(self, pyfunc: Callable) -> Callable:
        """Register the application's ``main``.

        The function is canonicalized under the symbol ``main`` regardless of
        its Python name; the rename pass later rewrites it to ``__user_main``
        exactly like the paper's user-wrapper header (Figure 3).
        """
        self._register(pyfunc, "main", is_main=True)
        return pyfunc

    def _register(self, pyfunc: Callable, name: str, *, is_main: bool) -> None:
        if name in self.functions:
            raise LinkError(f"duplicate device function {name!r} in program {self.name!r}")
        self.functions[name] = SourceFunction(pyfunc, name, is_main=is_main)

    # ------------------------------------------------------------------
    # globals
    # ------------------------------------------------------------------
    def global_scalar(self, name: str, dtype=DT_I64, init: float = 0) -> None:
        """Declare a module-level mutable scalar."""
        mty = _as_memtype(dtype)
        arr = np.array([init], dtype=np.float64 if mty is MemType.F64 else np.int64)
        if mty not in (MemType.I64, MemType.F64):
            raise TypeError("global scalars must be i64 or f64")
        self._add_global(GlobalVar(name, mty, 1, init=arr, scalar=True))

    def global_array(
        self,
        name: str,
        dtype,
        count: int | None = None,
        init=None,
        *,
        constant: bool = False,
    ) -> None:
        """Declare a module-level array.

        Either ``count`` (zero-initialized) or ``init`` (array-like defining
        both contents and length) must be given.
        """
        mty = _as_memtype(dtype)
        np_dtype = {
            MemType.I8: np.int8,
            MemType.I32: np.int32,
            MemType.I64: np.int64,
            MemType.F32: np.float32,
            MemType.F64: np.float64,
        }[mty]
        arr = None
        if init is not None:
            arr = np.ascontiguousarray(np.asarray(init, dtype=np_dtype))
            if count is not None and count != arr.size:
                raise ValueError(f"global {name!r}: count {count} != len(init) {arr.size}")
            count = arr.size
        if count is None:
            raise ValueError(f"global {name!r}: need count or init")
        self._add_global(GlobalVar(name, mty, int(count), init=arr, constant=constant))

    def global_string(self, name: str, text: str) -> None:
        """Declare a NUL-terminated byte string global."""
        data = np.frombuffer(text.encode() + b"\x00", dtype=np.int8).copy()
        self._add_global(GlobalVar(name, MemType.I8, data.size, init=data, constant=True))

    def _add_global(self, g: GlobalVar) -> None:
        if g.name in self.globals or g.name in self.functions:
            raise LinkError(f"duplicate symbol {g.name!r} in program {self.name!r}")
        self.globals[g.name] = g

    # ------------------------------------------------------------------
    # host externs
    # ------------------------------------------------------------------
    def declare_extern_host(self, name: str) -> None:
        """Declare a symbol that only exists on the host (forces RPC)."""
        self.extern_host.add(name)

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def compile(self) -> Module:
        """Compile all registered functions into a fresh IR module.

        Every call produces an independent module (functions recompiled,
        globals cloned), so one Program can back several loaders/devices
        without pass pipelines interfering with each other.

        The result is a *linked but unprocessed* module; run it through
        :func:`repro.passes.compile_for_device` (the loaders do this for you)
        to apply the declare-target/rename/RPC-lowering/LTO pipeline.
        """
        from dataclasses import replace as _dc_replace

        from repro.frontend.compiler import compile_source_function
        from repro.frontend.intrinsics import HOST_FUNCS

        module = Module(self.name)
        for name in sorted(self.extern_host | set(HOST_FUNCS)):
            module.declare_extern_host(name)
        # Compile functions first: string literals intern new globals into
        # ``self.globals`` as they are encountered.
        fns = [compile_source_function(sf, self) for sf in self.functions.values()]
        for g in self.globals.values():
            module.add_global(_dc_replace(g))
        for fn in fns:
            module.add_function(fn)
        if self.link_libc:
            from repro.passes.linker import link_modules
            from repro.runtime.libc import libc_module

            module = link_modules(module, libc_module())
        return module

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Program {self.name}: {len(self.functions)} funcs, {len(self.globals)} globals>"
