"""A fixed reference loop that measures how fast the host runs right now.

On a shared host the same Python code runs up to twice as slow for minutes
at a time, because other tenants share the cores and their caches.  The
end-to-end run times this loop just before each operation (outside every
timed interval) and reports the operation's wall time scaled by
REFERENCE_S / (that loop time): the time the operation would take at the
host speed the benchmark was defined at.  Pairing each operation with its
own loop follows the host's speed as it changes within a run.  The loop
imports nothing from chromaplex and never changes, so a change to
chromaplex moves only the operation times, and the scaled figures with them.

Its mix follows the work of the operations: pointer chasing through
permutations (perm), union-find over lists (colored_graph, unionfind), a
harmonic sum in exact rationals (predictions), and numpy permutations
composed by fancy indexing and turned into lists (the samplers).
"""
from __future__ import annotations

import gc
import random
import time
from fractions import Fraction

import numpy as np

# Median time of one reference_loop() on the machine the benchmark was
# defined on (2-vCPU Intel Xeon at 2.0 GHz, Python 3.11).  Any fixed value
# would do: it only sets the scale of the reported figures.
REFERENCE_S = 0.025

_N = 8000
_rng = random.Random(20170531)
_PERMS = [_rng.sample(range(_N), _N) for _ in range(2)]
_PAIRS = [(_rng.randrange(_N), _rng.randrange(_N)) for _ in range(_N)]
_NP_SIZE, _NP_ROUNDS = 5000, 40


def reference_loop() -> int:
    """The fixed work; returns a checksum so that none of it can be skipped."""
    total = 0
    for perm in _PERMS:  # cycle count
        seen = bytearray(_N)
        for s in range(_N):
            if not seen[s]:
                total += 1
                j = s
                while not seen[j]:
                    seen[j] = 1
                    j = perm[j]
    parent = list(range(_N))  # union-find with path halving
    for a, b in _PAIRS:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            parent[a] = b
            total += 1
    h = Fraction(0)  # exact rationals
    for k in range(1, 400):
        h += Fraction(1, k)
    total += h.denominator % 1000
    gen = np.random.default_rng(20170531)  # numpy permutations
    for _ in range(_NP_ROUNDS):
        a, b = gen.permutation(_NP_SIZE), gen.permutation(_NP_SIZE)
        prod = np.empty(_NP_SIZE, dtype=np.int64)
        prod[b] = a
        total += prod.tolist()[total % _NP_SIZE]
    return total


EXPECTED = reference_loop()


def measure() -> float:
    """Wall time of one reference loop, with the cyclic collector off so that
    the heap the operations leave behind does not change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        got = reference_loop()
        elapsed = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if got != EXPECTED:
        raise RuntimeError(f"reference loop returned {got}, expected {EXPECTED}")
    return elapsed

