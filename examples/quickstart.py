#!/usr/bin/env python
"""Quickstart: compile a tiny CPU-style application for the (simulated) GPU
and run it — first once, then as a 4-instance ensemble.

This mirrors the paper's workflow end to end:

1. write an ordinary ``main(argc, argv)`` application (restricted-Python
   subset instead of C);
2. the loader compiles it as device code (declare-target marking,
   ``main`` -> ``__user_main`` renaming, RPC lowering for ``printf``,
   LTO-style inlining) and loads it onto the simulated A100;
3. ``Loader.run`` is the prior work's single-instance main wrapper;
4. ``EnsembleLoader.run_ensemble`` is this paper's enhanced loader:
   one line of command-line arguments per instance, each instance mapped
   to its own team of one ``target teams distribute`` kernel launch.

Run:  python examples/quickstart.py
"""

from repro import EnsembleLoader, GPUDevice, LaunchSpec
from repro.frontend import Program, dgpu, i64, ptr_ptr

prog = Program("pi_estimator")


@prog.main
def main(argc: i64, argv: ptr_ptr) -> i64:
    """Estimate pi by midpoint integration of 4/(1+x^2) over [0,1].

    The slice count and a label come from the command line, so every
    ensemble instance can run a different problem.
    """
    slices = 1000
    label = 0
    i = 1
    while i < argc:
        if strcmp(argv[i], "-n") == 0:  # noqa: F821 - device libc
            i += 1
            slices = atoi(argv[i])  # noqa: F821
        elif strcmp(argv[i], "-l") == 0:  # noqa: F821
            i += 1
            label = atoi(argv[i])  # noqa: F821
        i += 1

    acc = malloc_f64(1)  # noqa: F821 - device heap
    acc[0] = 0.0
    h = 1.0 / float(slices)
    # OpenMP-style worksharing: this is `#pragma omp parallel for`
    for k in dgpu.parallel_range(slices):
        x = (float(k) + 0.5) * h
        dgpu.atomic_add(acc, 4.0 / (1.0 + x * x) * h)
    pi = acc[0]
    printf("[instance %ld] pi ~= %.8f with %ld slices\n", label, pi, slices)  # noqa: F821
    if pi > 3.1 and pi < 3.2:
        return 0
    return 1


def run() -> None:
    device = GPUDevice()
    loader = EnsembleLoader(prog, device)

    # --- single instance (the original direct-compilation loader) -------
    single = loader.run(
        LaunchSpec([["-n", "20000", "-l", "0"]], thread_limit=128)
    )
    print("single run:")
    print("  stdout:", single.stdout.strip())
    print(f"  exit code {single.exit_code}, {single.cycles:,.0f} simulated cycles")

    # --- ensemble: 4 instances, one team each (Figure 5 of the paper) ---
    argument_file = """
    -n 10000 -l 1
    -n 20000 -l 2
    -n 40000 -l 3
    -n 80000 -l 4
    """
    result = loader.run_ensemble(LaunchSpec(argument_file, thread_limit=128))
    print("\nensemble run (-n 4 -t 128):")
    for inst in result.instances:
        print("  " + inst.stdout.strip())
    print(
        f"  geometry: {result.geometry.num_teams} teams x "
        f"{result.geometry.thread_limit} threads, "
        f"{result.cycles:,.0f} simulated cycles, "
        f"all exit codes zero: {result.all_succeeded}"
    )


if __name__ == "__main__":
    run()
