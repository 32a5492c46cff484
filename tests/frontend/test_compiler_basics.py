"""Frontend language features, validated by executing compiled programs.

Every test compiles a small ``main`` through the full pipeline and runs it
on the simulated device — the result (exit code) is the oracle, so these
tests pin the *semantics* of the restricted subset, not IR shapes.
"""

import pytest

from repro.frontend import Program, dgpu, f64, i64, ptr_f64, ptr_i64, ptr_ptr
from repro.gpu.device import GPUDevice
from repro.host.launch import LaunchSpec
from repro.host.loader import Loader
from tests.util import SMALL_DEVICE

CONST_FROM_SCOPE = 29


def run_main(pyfunc, args=(), *, thread_limit=32):
    prog = Program(f"t_{pyfunc.__name__}")
    prog.main(pyfunc)
    loader = Loader(prog, GPUDevice(SMALL_DEVICE), heap_bytes=1 << 20)
    res = loader.run(
        LaunchSpec(
            [[str(a) for a in args]],
            thread_limit=thread_limit,
            collect_timing=False,
        )
    )
    return res.exit_code


class TestArithmetic:
    def test_integer_ops(self):
        def main(argc: i64, argv: ptr_ptr) -> i64:
            a = 17
            b = 5
            return (a + b) * 2 - a % b + (a // b) - (a ^ b) + (a & b) + (a | b)

        # 44 - 2 + 3 - 20 + 1 + 21 = 47
        assert run_main(main) == 47

    def test_shifts(self):
        def main(argc: i64, argv: ptr_ptr) -> i64:
            return (1 << 10) + (-16 >> 2)

        assert run_main(main) == 1024 - 4

    def test_float_arithmetic_and_conversion(self):
        def main(argc: i64, argv: ptr_ptr) -> i64:
            x = 2.5
            y = x * 4.0 + 1.0 / 2.0  # 10.5
            return int(y * 2.0)  # 21

        assert run_main(main) == 21

    def test_true_division_promotes(self):
        def main(argc: i64, argv: ptr_ptr) -> i64:
            return int((7 / 2) * 10.0)  # 35

        assert run_main(main) == 35

    def test_power_operator(self):
        def main(argc: i64, argv: ptr_ptr) -> i64:
            return int(2**10)

        assert run_main(main) == 1024

    def test_mixed_promotion(self):
        def main(argc: i64, argv: ptr_ptr) -> i64:
            n = 3
            return int(n * 1.5 * 2.0)  # 9

        assert run_main(main) == 9

    def test_unary_ops(self):
        def main(argc: i64, argv: ptr_ptr) -> i64:
            a = 5
            return -a + (~a) + abs(-7) + int(not 0)  # -5 + -6 + 7 + 1

        assert run_main(main) == -3

    def test_builtin_min_max_abs(self):
        def main(argc: i64, argv: ptr_ptr) -> i64:
            return min(3, 9) + max(3, 9) + abs(-4) + int(abs(-2.5) * 2.0)

        assert run_main(main) == 3 + 9 + 4 + 5


class TestControlFlow:
    def test_if_elif_else(self):
        def main(argc: i64, argv: ptr_ptr) -> i64:
            x = argc
            if x > 3:
                return 30
            elif x > 1:
                return 20
            else:
                return 10

        assert run_main(main) == 10  # argc == 1
        assert run_main(main, ["a"]) == 20
        assert run_main(main, ["a", "b", "c"]) == 30

    def test_while_with_break_continue(self):
        def main(argc: i64, argv: ptr_ptr) -> i64:
            total = 0
            i = 0
            while True:
                i += 1
                if i > 100:
                    break
                if i % 2 == 0:
                    continue
                total += i
            return total  # sum of odd numbers 1..99

        assert run_main(main) == 2500

    def test_for_range_variants(self):
        def main(argc: i64, argv: ptr_ptr) -> i64:
            a = 0
            for i in range(5):
                a += i
            b = 0
            for i in range(2, 7):
                b += i
            c = 0
            for i in range(10, 0, -2):
                c += i
            return a * 10000 + b * 100 + c

        assert run_main(main) == 10 * 10000 + 20 * 100 + 30

    def test_nested_loops(self):
        def main(argc: i64, argv: ptr_ptr) -> i64:
            total = 0
            for i in range(4):
                for j in range(4):
                    if j > i:
                        total += 1
            return total  # pairs with j > i

        assert run_main(main) == 6

    def test_ternary_expression(self):
        def main(argc: i64, argv: ptr_ptr) -> i64:
            x = 5
            return 100 if x > 3 else 200

        assert run_main(main) == 100

    def test_boolean_ops(self):
        def main(argc: i64, argv: ptr_ptr) -> i64:
            a = 1
            b = 0
            return int(a and not b) * 10 + int(a or b) + int(b and a) * 1000

        assert run_main(main) == 11

    def test_assert_passes(self):
        def main(argc: i64, argv: ptr_ptr) -> i64:
            assert argc >= 1
            return 0

        assert run_main(main) == 0

    def test_assert_failure_traps(self):
        from repro.errors import DeviceTrap

        def main(argc: i64, argv: ptr_ptr) -> i64:
            assert argc > 99, "argc too small"
            return 0

        with pytest.raises(DeviceTrap, match="argc too small"):
            run_main(main)

    def test_implicit_return_zero_from_main(self):
        def main(argc: i64, argv: ptr_ptr) -> i64:
            x = argc + 1  # noqa: F841

        assert run_main(main) == 0


class TestVariables:
    def test_tuple_swap(self):
        def main(argc: i64, argv: ptr_ptr) -> i64:
            a, b = 3, 9
            a, b = b, a
            return a * 10 + b

        assert run_main(main) == 93

    def test_augmented_ops(self):
        def main(argc: i64, argv: ptr_ptr) -> i64:
            x = 10
            x += 5
            x -= 3
            x *= 2
            x //= 3  # 8
            x <<= 2  # 32
            return x

        assert run_main(main) == 32

    def test_int_to_float_assignment_converts(self):
        def main(argc: i64, argv: ptr_ptr) -> i64:
            x = 1.5
            x = 3  # int assigned into float var: converts
            return int(x * 2.0)

        assert run_main(main) == 6

    def test_closure_constant_capture(self):
        def main(argc: i64, argv: ptr_ptr) -> i64:
            return CONST_FROM_SCOPE + 1

        assert run_main(main) == 30


class TestPointers:
    def test_stack_array_indexing(self):
        def main(argc: i64, argv: ptr_ptr) -> i64:
            p = dgpu.stack_i64(8)
            for i in range(8):
                p[i] = i * i
            return p[3] + p[7]

        assert run_main(main) == 9 + 49

    def test_pointer_arithmetic(self):
        def main(argc: i64, argv: ptr_ptr) -> i64:
            p = dgpu.stack_f64(4)
            p[0] = 1.0
            p[1] = 2.0
            p[2] = 4.0
            p[3] = 8.0
            q = p + 2
            r = q - 1
            return int(q[0] + r[0] + (q - p))  # 4 + 2 + 2

        assert run_main(main) == 8

    def test_pointer_difference(self):
        def main(argc: i64, argv: ptr_ptr) -> i64:
            p = dgpu.stack_i64(10)
            q = p + 7
            return q - p

        assert run_main(main) == 7

    def test_cast_reinterprets(self):
        def main(argc: i64, argv: ptr_ptr) -> i64:
            p = dgpu.stack_i64(1)
            q = dgpu.cast(p, ptr_f64)
            q[0] = 1.0  # bit pattern of 1.0
            bits = p[0]
            if bits == 4607182418800017408:  # 0x3FF0000000000000
                return 0
            return 1

        assert run_main(main) == 0

    def test_i32_storage_truncates(self):
        def main(argc: i64, argv: ptr_ptr) -> i64:
            p = dgpu.stack_i32(2)
            p[0] = 5000000000  # > 2^32: truncates to 32 bits
            p[1] = -7
            return int(p[0] == 705032704) + int(p[1] == -7)

        assert run_main(main) == 2

    def test_f32_storage_loses_precision(self):
        def main(argc: i64, argv: ptr_ptr) -> i64:
            p = dgpu.stack_f32(1)
            q = dgpu.stack_f64(1)
            p[0] = 0.1
            q[0] = 0.1
            # f32 round-trip differs from the f64 value
            if p[0] == q[0]:
                return 1
            if dgpu.fabs(p[0] - 0.1) < 1e-7:
                return 0
            return 2

        assert run_main(main) == 0

    def test_argv_strings(self):
        def main(argc: i64, argv: ptr_ptr) -> i64:
            # argv[1][0] is the first character of the first user argument
            s = argv[1]
            return s[0]

        assert run_main(main, ["A"]) == ord("A")


class TestDeviceFunctions:
    def test_call_and_inline(self):
        prog = Program("callee_test")

        @prog.device
        def square(x: i64) -> i64:
            return x * x

        @prog.device
        def sum_squares(n: i64) -> i64:
            total = 0
            for i in range(n):
                total += square(i)
            return total

        @prog.main
        def main(argc: i64, argv: ptr_ptr) -> i64:
            return sum_squares(5)

        loader = Loader(prog, GPUDevice(SMALL_DEVICE), heap_bytes=1 << 20)
        assert loader.run(LaunchSpec([[]], collect_timing=False)).exit_code == 30

    def test_float_args_coerced(self):
        prog = Program("coerce_test")

        @prog.device
        def scale(x: f64, k: f64) -> f64:
            return x * k

        @prog.main
        def main(argc: i64, argv: ptr_ptr) -> i64:
            return int(scale(3, 4))  # ints coerce to f64 params

        loader = Loader(prog, GPUDevice(SMALL_DEVICE), heap_bytes=1 << 20)
        assert loader.run(LaunchSpec([[]], collect_timing=False)).exit_code == 12


class TestGlobals:
    def test_global_scalar_read_write(self):
        prog = Program("gscalar")
        prog.global_scalar("counter", "i64", init=5)

        @prog.main
        def main(argc: i64, argv: ptr_ptr) -> i64:
            counter = counter + 10  # noqa: F821 - global scalar
            return counter  # noqa: F821

        loader = Loader(prog, GPUDevice(SMALL_DEVICE), heap_bytes=1 << 20)
        assert loader.run(LaunchSpec([[]], collect_timing=False)).exit_code == 15

    def test_global_array_decays_to_pointer(self):
        prog = Program("garray")
        prog.global_array("table", "f64", init=[1.5, 2.5, 3.5])

        @prog.main
        def main(argc: i64, argv: ptr_ptr) -> i64:
            return int(table[0] + table[2])  # noqa: F821

        loader = Loader(prog, GPUDevice(SMALL_DEVICE), heap_bytes=1 << 20)
        assert loader.run(LaunchSpec([[]], collect_timing=False)).exit_code == 5

    def test_globals_reset_between_runs(self):
        prog = Program("greset")
        prog.global_scalar("state", "i64", init=1)

        @prog.main
        def main(argc: i64, argv: ptr_ptr) -> i64:
            state = state * 3  # noqa: F821
            return state  # noqa: F821

        loader = Loader(prog, GPUDevice(SMALL_DEVICE), heap_bytes=1 << 20)
        assert loader.run(LaunchSpec([[]], collect_timing=False)).exit_code == 3
        # fresh-process semantics: second run starts from init again
        assert loader.run(LaunchSpec([[]], collect_timing=False)).exit_code == 3


class TestMathIntrinsics:
    def test_dgpu_math(self):
        def main(argc: i64, argv: ptr_ptr) -> i64:
            v = dgpu.sqrt(49.0) + dgpu.fabs(-3.0) + dgpu.floor(2.9) + dgpu.pow(2.0, 5.0)
            return int(v)  # 7 + 3 + 2 + 32

        assert run_main(main) == 44

    def test_math_module_alias(self):
        import math

        def main(argc: i64, argv: ptr_ptr) -> i64:
            return int(math.sqrt(81.0) + math.floor(math.pi))

        assert run_main(main) == 12

    def test_exp_log_roundtrip(self):
        def main(argc: i64, argv: ptr_ptr) -> i64:
            x = dgpu.log(dgpu.exp(3.0))
            return int(x * 1000.0 + 0.5)

        assert run_main(main) == 3000
