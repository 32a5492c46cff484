"""PassManager: ordered passes, one span per pass, PassError attribution."""

import pytest

from repro.errors import PassError
from repro.ir.module import Module
from repro.obs import Tracer
from repro.passes.pass_manager import PassManager


def test_runs_in_order_and_threads_a_replacement_module():
    seen = []
    replacement = Module("replacement")

    def first(module):
        seen.append(("first", module.name))
        return replacement

    def second(module):
        seen.append(("second", module.name))

    pm = PassManager().add(first, "first").add(second, "second")
    assert pm.run(Module("m")) is replacement
    assert seen == [("first", "m"), ("second", "replacement")]


def test_failure_is_attributed_to_the_pass():
    def broken(module):
        raise KeyError("entry")

    pm = PassManager().add(broken, "broken")
    with pytest.raises(PassError, match="pass 'broken' failed: 'entry'"):
        pm.run(Module("m"))


def test_pass_error_propagates_unwrapped():
    def refuses(module):
        raise PassError("unknown global 'g'")

    with pytest.raises(PassError, match="^unknown global 'g'$"):
        PassManager().add(refuses, "refuses").run(Module("m"))


def test_one_compiler_span_per_pass():
    tracer = Tracer()
    pm = PassManager().add(lambda m: None, "a").add(lambda m: None, "b")
    pm.run(Module("m"), tracer=tracer)
    assert [e.name for e in tracer.events_on("compiler")] == ["a", "b"]
