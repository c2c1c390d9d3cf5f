"""Integer exterior algebra on a small oriented Euclidean coordinate space.

Forms of degree p are coefficient vectors over the lexicographic basis of
sorted index tuples.  All structure tables (wedge by a 1-form, interior
product, Hodge star) are integer-signed, so compositions of these maps are
exact in integer, rational or float arithmetic alike.
"""

from __future__ import annotations

from itertools import combinations, permutations

import numpy as np


class ExteriorAlgebra:
    def __init__(self, n: int):
        self.n = n
        self.basis = {p: list(combinations(range(n), p)) for p in range(n + 1)}
        self.index = {
            p: {t: i for i, t in enumerate(self.basis[p])} for p in range(n + 1)
        }
        self._wedge1_cache: dict = {}
        self._hook1_cache: dict = {}

    def dim(self, p: int) -> int:
        return len(self.basis[p])

    @staticmethod
    def _insert(idx: int, t: tuple):
        """Position and sign for e_idx ^ e_t, or None if idx in t."""
        if idx in t:
            return None
        pos = sum(1 for v in t if v < idx)
        return tuple(sorted(t + (idx,))), (-1) ** pos

    def wedge1(self, axis: int, p: int) -> np.ndarray:
        """Matrix of e^axis ^ . : Lambda^p -> Lambda^(p+1) (integer)."""
        key = (axis, p)
        if key not in self._wedge1_cache:
            out = np.zeros((self.dim(p + 1), self.dim(p)), dtype=np.int64)
            for col, t in enumerate(self.basis[p]):
                hit = self._insert(axis, t)
                if hit is not None:
                    tgt, sign = hit
                    out[self.index[p + 1][tgt], col] = sign
            self._wedge1_cache[key] = out
        return self._wedge1_cache[key]

    def hook1(self, axis: int, p: int) -> np.ndarray:
        """Matrix of e_axis interior product: Lambda^p -> Lambda^(p-1)."""
        key = (axis, p)
        if key not in self._hook1_cache:
            out = np.zeros((self.dim(p - 1), self.dim(p)), dtype=np.int64)
            for col, t in enumerate(self.basis[p]):
                if axis not in t:
                    continue
                pos = t.index(axis)
                rest = t[:pos] + t[pos + 1:]
                out[self.index[p - 1][rest], col] = (-1) ** pos
            self._hook1_cache[key] = out
        return self._hook1_cache[key]

    def star_table(self, p: int):
        """For each basis p-form, the complementary tuple and the sign of the
        permutation (t, t^c) relative to (0..n-1)."""
        table = []
        for t in self.basis[p]:
            comp = tuple(sorted(set(range(self.n)) - set(t)))
            perm = list(t) + list(comp)
            sign = _perm_sign(perm)
            table.append((self.index[self.n - p][comp], sign))
        return table

    def star(self, coeffs: np.ndarray, p: int) -> np.ndarray:
        """Hodge star with orientation e^0 ^ ... ^ e^(n-1), batched over the
        leading axes of coeffs."""
        rows, signs = zip(*self.star_table(p))
        out = np.zeros(coeffs.shape[:-1] + (self.dim(self.n - p),), dtype=coeffs.dtype)
        out[..., list(rows)] = np.array(signs) * coeffs
        return out

    def wedge(self, a: np.ndarray, p: int, b: np.ndarray, q: int) -> np.ndarray:
        """General wedge product of a p-form and a q-form."""
        out = np.zeros(self.dim(p + q), dtype=np.result_type(a.dtype, b.dtype))
        for ia, ta in enumerate(self.basis[p]):
            va = a[ia]
            if va == 0:
                continue
            for ib, tb in enumerate(self.basis[q]):
                vb = b[ib]
                if vb == 0 or set(ta) & set(tb):
                    continue
                merged = tuple(sorted(ta + tb))
                sign = _perm_sign(list(ta) + list(tb))
                out[self.index[p + q][merged]] += sign * va * vb
        return out

    def to_tensor(self, coeffs: np.ndarray, p: int) -> np.ndarray:
        """Full antisymmetric rank-p array from the compact coefficients."""
        out = np.zeros((self.n,) * p, dtype=np.asarray(coeffs).dtype)
        for pos, t in enumerate(self.basis[p]):
            v = coeffs[pos]
            if v == 0:
                continue
            for perm in permutations(range(p)):
                idx = tuple(t[perm[i]] for i in range(p))
                out[idx] = _perm_sign(list(perm)) * v
        return out


def _perm_sign(perm) -> int:
    """Sign of a permutation given as a list of distinct comparables."""
    perm = list(perm)
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign
