"""Frontend source locations: every compiled instruction carries the
``(line, col)`` of the DSL statement it came from, surviving into the
printer and the lint diagnostics."""

from repro.frontend.dsl import Program, dgpu
from repro.frontend.dtypes import i64, ptr_ptr
from repro.ir.printer import format_instr, print_function


def build_program_and_lines():
    prog = Program("locs")

    @prog.main
    def main(argc: i64, argv: ptr_ptr) -> i64:  # L0
        x = 7  # L1
        y = x * 3  # L2
        for i in dgpu.parallel_range(4):  # L3
            y = y + i  # L4
        return y - y  # L5

    first = main.__code__.co_firstlineno  # the decorator's line
    # statement lines relative to the decorator (see offsets marked above)
    def_line = first + 1
    return prog, {
        "x_assign": def_line + 1,
        "y_assign": def_line + 2,
        "loop": def_line + 3,
        "body": def_line + 4,
        "ret": def_line + 5,
    }


class TestLocRecording:
    def test_every_instruction_has_a_loc(self):
        prog, _ = build_program_and_lines()
        module = prog.compile()
        fn = module.functions["main"]
        missing = [
            instr.op.name
            for instr in fn.iter_instrs()
            if "loc" not in instr.meta
        ]
        assert missing == []

    def test_lines_map_into_the_statement_range(self):
        prog, lines = build_program_and_lines()
        module = prog.compile()
        fn = module.functions["main"]
        recorded = {instr.meta["loc"][0] for instr in fn.iter_instrs()}
        # every recorded line falls inside the function body...
        assert min(recorded) >= lines["x_assign"]
        assert max(recorded) <= lines["ret"]
        # ...and the loop body's accumulation line is represented
        assert lines["body"] in recorded

    def test_cols_are_recorded(self):
        prog, _ = build_program_and_lines()
        module = prog.compile()
        fn = module.functions["main"]
        cols = {instr.meta["loc"][1] for instr in fn.iter_instrs()}
        assert any(c > 0 for c in cols)  # loop body is indented


class TestLocPrinting:
    def test_printer_appends_loc(self):
        prog, lines = build_program_and_lines()
        module = prog.compile()
        text = print_function(module.functions["main"])
        assert f"!loc({lines['x_assign']}:" in text

    def test_instr_without_loc_prints_plain(self):
        from repro.ir.instructions import Instr, Opcode

        assert "!loc" not in format_instr(Instr(Opcode.RET))


class TestLocSurvival:
    def test_inliner_preserves_locs(self):
        """Locations survive the full pipeline into the finalized kernel."""
        from repro.passes import compile_for_device, finalize_executable
        from repro.runtime.kernel import build_ensemble_kernel

        prog, lines = build_program_and_lines()
        module = compile_for_device(prog.compile())
        build_ensemble_kernel(module)
        module = finalize_executable(module)
        kernel = next(f for f in module.functions.values() if f.is_kernel)
        recorded = {
            instr.meta["loc"][0]
            for instr in kernel.iter_instrs()
            if "loc" in instr.meta
        }
        assert lines["body"] in recorded
