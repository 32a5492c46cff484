"""Minimal pass manager: ordered module passes, one span per pass, and
:class:`~repro.errors.PassError` attribution for a pass that fails."""

from __future__ import annotations

from typing import Callable

from repro.errors import PassError
from repro.ir.module import Module

ModulePass = Callable[[Module], Module | None]


class PassManager:
    """Runs module passes in order.

    A pass is a callable taking a :class:`~repro.ir.module.Module` and
    returning either ``None`` (in-place mutation) or a replacement module.
    An exception other than :class:`~repro.errors.PassError` is re-raised
    as one naming the pass.
    """

    def __init__(self) -> None:
        self.passes: list[tuple[str, ModulePass]] = []

    def add(self, p: ModulePass, name: str | None = None) -> "PassManager":
        self.passes.append((name or getattr(p, "__name__", "pass"), p))
        return self

    def run(self, module: Module, *, tracer=None) -> Module:
        """Run every pass in order; with an enabled tracer each pass is
        recorded as a wall-clock span on the ``compiler`` track."""
        tracing = tracer is not None and tracer.enabled
        for name, p in self.passes:
            try:
                if tracing:
                    with tracer.span(name, track="compiler", cat="pass"):
                        result = p(module)
                else:
                    result = p(module)
            except PassError:
                raise
            except Exception as exc:  # wrap for attribution
                raise PassError(f"pass {name!r} failed: {exc}") from exc
            if result is not None:
                module = result
        return module

    def __repr__(self) -> str:  # pragma: no cover
        return f"<PassManager {[n for n, _ in self.passes]}>"
