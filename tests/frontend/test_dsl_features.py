"""Remaining DSL surface: annotated assignment, select, reductions,
lane/geometry intrinsics, string globals — executed on the device."""

import pytest

from repro.frontend import Program, dgpu, f64, i64, ptr_ptr
from repro.gpu.device import GPUDevice
from repro.host.launch import LaunchSpec
from repro.host.loader import Loader
from tests.util import SMALL_DEVICE


def run_main(pyfunc, args=(), *, thread_limit=32, prog=None):
    program = prog or Program(f"feat_{pyfunc.__name__}")
    if prog is None:
        program.main(pyfunc)
    loader = Loader(program, GPUDevice(SMALL_DEVICE), heap_bytes=1 << 20)
    return loader.run(
        LaunchSpec(
            [[str(a) for a in args]],
            thread_limit=thread_limit,
            collect_timing=False,
        )
    ).exit_code


class TestAnnotatedAssignment:
    def test_annassign_coerces(self):
        def main(argc: i64, argv: ptr_ptr) -> i64:
            x: f64 = 3  # annotated: int literal coerces to f64
            return int(x * 2.0)

        assert run_main(main) == 6


class TestSelectIntrinsic:
    def test_select_scalar(self):
        def main(argc: i64, argv: ptr_ptr) -> i64:
            a = dgpu.select(argc > 1, 100, 200)
            b = dgpu.select(argc > 99, 1.5, 2.5)
            return a + int(b * 2.0)

        assert run_main(main) == 205  # argc==1: 200 + 5


class TestTeamReductionsInDSL:
    def test_reduce_add_from_dsl(self):
        def main(argc: i64, argv: ptr_ptr) -> i64:
            out = malloc_i64(1)  # noqa: F821
            for t in dgpu.parallel_range(32):
                total = dgpu.reduce_add(t)
                if t == 0:
                    out[0] = total
            return out[0]

        assert run_main(main) == sum(range(32))

    def test_reduce_max_min_float(self):
        def main(argc: i64, argv: ptr_ptr) -> i64:
            out = malloc_f64(2)  # noqa: F821
            for t in dgpu.parallel_range(32):
                v = float(t) * 1.5
                mx = dgpu.reduce_max(v)
                mn = dgpu.reduce_min(v)
                if t == 0:
                    out[0] = mx
                    out[1] = mn
            return int(out[0] * 10.0) + int(out[1])

        assert run_main(main) == 465  # max 46.5 -> 465, min 0


class TestGeometryIntrinsics:
    def test_lane_id_matches_tid_within_one_warp(self):
        def main(argc: i64, argv: ptr_ptr) -> i64:
            bad = malloc_i64(1)  # noqa: F821
            bad[0] = 0
            for t in dgpu.parallel_range(32):
                if dgpu.lane_id() != t:  # one warp: lane == tid
                    dgpu.atomic_add(bad, 1)
            return bad[0]

        assert run_main(main, thread_limit=32) == 0

    def test_num_threads_reflects_thread_limit(self):
        def main(argc: i64, argv: ptr_ptr) -> i64:
            out = malloc_i64(1)  # noqa: F821
            for t in dgpu.parallel_range(1):
                out[0] = dgpu.num_threads()
            return out[0]

        assert run_main(main, thread_limit=64) == 64

    def test_team_geometry_single_team(self):
        def main(argc: i64, argv: ptr_ptr) -> i64:
            return dgpu.num_teams() * 100 + dgpu.team_id()

        assert run_main(main) == 100


class TestStringGlobal:
    def test_global_string_readable(self):
        prog = Program("strglob")
        prog.global_string("greeting", "abc")

        @prog.main
        def main(argc: i64, argv: ptr_ptr) -> i64:
            return strlen(greeting) * 100 + greeting[1]  # noqa: F821

        assert run_main(main, prog=prog) == 3 * 100 + ord("b")


class TestInstanceIntrinsic:
    def test_instance_id_in_single_team(self):
        def main(argc: i64, argv: ptr_ptr) -> i64:
            return dgpu.instance_id()

        assert run_main(main) == 0
