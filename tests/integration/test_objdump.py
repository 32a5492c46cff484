"""The objdump IR-inspection tool."""

import pytest

from repro.tools.objdump import main, module_at_stage, stats_of


def test_frontend_stage_keeps_main():
    from repro.apps import rsbench

    m = module_at_stage(rsbench.build_program(), "frontend")
    assert "main" in m.functions
    assert "__user_main" not in m.functions


def test_device_stage_renames_main():
    from repro.apps import rsbench

    m = module_at_stage(rsbench.build_program(), "device")
    assert "__user_main" in m.functions
    assert not m.kernels()


def test_final_stage_has_callfree_kernels():
    from repro.apps import rsbench

    m = module_at_stage(rsbench.build_program(), "final")
    (kernel,) = m.kernels()
    assert kernel.name == "__ensemble_entry"
    assert kernel.called_symbols() == set()


def test_stats(capsys):
    assert main(["--app", "rsbench", "--stage", "final", "--stats"]) == 0
    out = capsys.readouterr().out
    assert "__ensemble_entry" in out
    assert "instructions:" in out


def test_dump_single_function(capsys):
    assert main(["--app", "rsbench", "--stage", "device", "--function", "__user_main"]) == 0
    out = capsys.readouterr().out
    assert "func @__user_main" in out
    assert "rpc" in out  # printf already lowered


def test_unknown_app(capsys):
    assert main(["--app", "quake"]) == 1
    assert "unknown app" in capsys.readouterr().err


def test_unknown_function(capsys):
    assert main(["--app", "rsbench", "--function", "nope"]) == 1
    assert "no function" in capsys.readouterr().err


def test_stats_of_counts():
    from repro.apps import rsbench

    m = module_at_stage(rsbench.build_program(), "final")
    s = stats_of(m)
    assert s["instructions_total"] == sum(s["instructions_per_function"].values())
    assert s["kernels"] == ["__ensemble_entry"]
