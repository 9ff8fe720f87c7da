"""Permutations, uniform sampling, and a pointer-chasing cycle count.

Permutations act on {1..n} in all external interfaces; images are stored
0-based internally as read-only numpy arrays.
"""
from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


class Permutation:
    """A bijection of {1..n}, immutable after construction."""

    __slots__ = ("images", "n")

    def __init__(self, images0: np.ndarray | Sequence[int], *, _trusted: bool = False):
        arr = np.asarray(images0, dtype=np.int64)
        if not _trusted:
            if arr.ndim != 1:
                raise ValueError("images must be one-dimensional")
            n = arr.shape[0]
            if n == 0:
                raise ValueError("permutation size must be >= 1")
            seen = np.zeros(n, dtype=bool)
            if arr.min() < 0 or arr.max() >= n:
                raise ValueError("images out of range for a permutation of {1..%d}" % n)
            seen[arr] = True
            if not seen.all():
                raise ValueError("images are not a bijection")
        arr = arr.copy() if not _trusted else arr
        arr.flags.writeable = False
        self.images = arr
        self.n = arr.shape[0]

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        if n < 1:
            raise ValueError("permutation size must be >= 1")
        return cls(np.arange(n, dtype=np.int64), _trusted=True)

    @classmethod
    def from_one_line(cls, images: Iterable[int]) -> "Permutation":
        """Build from a 1-based one-line image list, e.g. [2, 1, 3]."""
        arr = np.asarray(list(images), dtype=np.int64) - 1
        return cls(arr)

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        """Build from disjoint cycles in 1-based notation."""
        arr = np.arange(n, dtype=np.int64)
        for cyc in cycles:
            cyc = list(cyc)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                arr[a - 1] = b - 1
        return cls(arr)

    def __call__(self, k: int) -> int:
        """Image of k, 1-based."""
        if not 1 <= k <= self.n:
            raise ValueError(f"point {k} outside {{1..{self.n}}}")
        return int(self.images[k - 1]) + 1

    def one_line(self) -> tuple[int, ...]:
        """1-based one-line form."""
        return tuple(int(v) + 1 for v in self.images)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.images, other.images))

    def __hash__(self) -> int:
        return hash((self.n, self.images.tobytes()))

    def __repr__(self) -> str:
        return f"Permutation({list(self.one_line())})"

    def serialize(self) -> str:
        """One-line text form: whitespace-separated 1-based images."""
        return " ".join(str(v) for v in self.one_line())

    @classmethod
    def deserialize(cls, text: str) -> "Permutation":
        return cls.from_one_line(int(tok) for tok in text.split())


# Kept for bench/checks.py and product_cycles; ROADMAP item 1 moves both into bench/.
def count_cycles(images0) -> int:
    """Number of orbits of a 0-based image array, by pointer chasing."""
    img = images0.tolist() if isinstance(images0, np.ndarray) else list(images0)
    seen = bytearray(len(img))
    count = 0
    for i in range(len(img)):
        if not seen[i]:
            count += 1
            j = i
            while not seen[j]:
                seen[j] = 1
                j = img[j]
    return count


# Kept for bench/tracing.py, which imports it; ROADMAP item 1 moves it into bench/.
def product_cycles(a: Permutation, b: Permutation) -> int:
    """Cycle count of a o b^{-1} without materializing the inverse."""
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} vs {b.n}")
    prod = np.empty(a.n, dtype=np.int64)
    prod[b.images] = a.images  # prod[b(k)] = a(k), i.e. prod = a o b^{-1}
    return count_cycles(prod)


def sample_uniform_permutation(n: int, rng: np.random.Generator) -> Permutation:
    """Uniform element of S_n via an unbiased shuffle."""
    if n < 1:
        raise ValueError("permutation size must be >= 1")
    return Permutation(rng.permutation(n).astype(np.int64), _trusted=True)


def sample_fixed_point_free_involution(n: int, rng: np.random.Generator) -> Permutation:
    """Uniform fixed-point-free involution of {1..n}: shuffle, then pair
    consecutive elements of the shuffled order."""
    if n < 2 or n % 2:
        raise ValueError("fixed-point-free involutions need even size >= 2")
    order = rng.permutation(n).astype(np.int64)
    img = np.empty(n, dtype=np.int64)
    img[order[0::2]] = order[1::2]
    img[order[1::2]] = order[0::2]
    return Permutation(img, _trusted=True)
