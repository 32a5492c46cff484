"""GP-style program-variant generator: the compile-at-scale workload.

The PAPERS.md precedent ("Parallel and in-process compilation of
individuals for genetic programming on GPU") evaluates thousands of
small program variants per generation, with total throughput bounded by
compile latency.  This module provides the *individuals*: expression
trees over one variable ``x``, small constants, and ``+``/``-``/``*``,
rendered into the restricted-Python DSL as a complete device program —

* a worksharing ``parallel_range`` loop evaluates the genome at every
  sample point ``x = 0..points-1``,
* a sequential reduction sums the samples,
* the total is printed over RPC (the full-precision observable the
  harness reads) and returned masked as the exit code.

Genomes are canonicalized (commutative operands sorted) before hashing,
so ``x + 1`` and ``1 + x`` share one :func:`genome_key` and hence one
compile-cache entry — semantic deduplication on top of content
addressing.  Everything is deterministic given a seeded
``random.Random``.
"""

from __future__ import annotations

import hashlib
import textwrap

from repro.frontend.dsl import Program

#: Genome grammar: a genome is ``"x"``, an int leaf, or a tuple
#: ``(op, left, right)`` with ``op`` in :data:`OPS`.
OPS = ("add", "sub", "mul")
COMMUTATIVE = frozenset({"add", "mul"})
LEAF_CONSTS = (1, 2, 3, 5)

#: Default number of sample points per evaluation.
DEFAULT_POINTS = 12

#: Exit-code mask (the printed total is the real observable).
EXIT_MASK = 1023

_PY_OPS = {"add": "+", "sub": "-", "mul": "*"}


# ---------------------------------------------------------------------------
# genome construction / variation
# ---------------------------------------------------------------------------
def random_genome(rng, depth: int = 2):
    """One random expression tree of height at most ``depth``."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return "x"
        return rng.choice(LEAF_CONSTS)
    op = rng.choice(OPS)
    return (op, random_genome(rng, depth - 1), random_genome(rng, depth - 1))


def mutate(genome, rng, depth: int = 2):
    """Replace one uniformly chosen subtree with a fresh random tree."""
    nodes = _count_nodes(genome)
    target = rng.randrange(nodes)
    mutated, _ = _replace_node(genome, target, rng, depth)
    return mutated


def _count_nodes(genome) -> int:
    if not isinstance(genome, tuple):
        return 1
    return 1 + _count_nodes(genome[1]) + _count_nodes(genome[2])


def _replace_node(genome, target: int, rng, depth: int):
    """Pre-order walk; node ``target`` is regenerated at height ``depth``."""
    if target == 0:
        return random_genome(rng, depth), -1
    if not isinstance(genome, tuple):
        return genome, target - 1
    op, left, right = genome
    left, target = _replace_node(left, target - 1, rng, max(depth - 1, 0))
    if target < 0:
        return (op, left, right), -1
    right, target = _replace_node(right, target, rng, max(depth - 1, 0))
    return (op, left, right), target


def canonical(genome):
    """Sort commutative operands so semantically identical trees collapse
    onto one key (and one compile-cache entry)."""
    if not isinstance(genome, tuple):
        return genome
    op, left, right = genome
    left, right = canonical(left), canonical(right)
    if op in COMMUTATIVE and repr(left) > repr(right):
        left, right = right, left
    return (op, left, right)


def genome_key(genome) -> str:
    """Stable content identity of a genome — the compile cache's
    ``source_hash`` for GP variants, so cache hits skip the frontend."""
    text = repr(canonical(genome))
    return "gp:" + hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


# ---------------------------------------------------------------------------
# rendering + reference semantics
# ---------------------------------------------------------------------------
def render_expr(genome) -> str:
    """The genome as a parenthesized Python/DSL expression over ``x``."""
    if not isinstance(genome, tuple):
        return str(genome)
    op, left, right = genome
    return f"({render_expr(left)} {_PY_OPS[op]} {render_expr(right)})"


def genome_source(genome, points: int = DEFAULT_POINTS) -> str:
    """Complete restricted-Python source of the evaluator program."""
    return textwrap.dedent(
        f'''
        def main(argc: i64, argv: ptr_ptr) -> i64:
            out = malloc_i64({points})
            for i in dgpu.parallel_range({points}):
                x = i
                out[i] = {render_expr(genome)}
            total = malloc_i64(1)
            total[0] = 0
            for j in range({points}):
                total[0] = total[0] + out[j]
            printf("gp total %d\\n", total[0])
            return total[0] & {EXIT_MASK}
        '''
    ).strip()


def reference_total(genome, points: int = DEFAULT_POINTS) -> int:
    """Host-side model of the device program's printed total."""

    def ev(node, x):
        if node == "x":
            return x
        if not isinstance(node, tuple):
            return int(node)
        op, left, right = node
        a, b = ev(left, x), ev(right, x)
        if op == "add":
            return a + b
        if op == "sub":
            return a - b
        return a * b

    return sum(ev(genome, x) for x in range(points))


def build_genome_program(genome, points: int = DEFAULT_POINTS) -> Program:
    """Compile-ready :class:`Program` evaluating ``genome`` at ``points``
    sample points."""
    return Program.from_source(
        genome_source(genome, points), name="gp-variant"
    )


__all__ = [
    "OPS",
    "COMMUTATIVE",
    "LEAF_CONSTS",
    "DEFAULT_POINTS",
    "EXIT_MASK",
    "build_genome_program",
    "canonical",
    "genome_key",
    "genome_source",
    "mutate",
    "random_genome",
    "reference_total",
    "render_expr",
]
