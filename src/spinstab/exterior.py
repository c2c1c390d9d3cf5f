"""Integer exterior algebra on a small oriented Euclidean coordinate space.

Forms of degree p are coefficient vectors over the lexicographic basis of
sorted index tuples.  One signed integer table per pair of degrees, the
wedge table e_ta ^ e_tb = table[:, ta, tb], holds every structure map: the
wedge by a coframe 1-form is its (1, p) table, the interior product is the
transpose of that (the adjoint in the orthonormal basis), and the Hodge
star reads the top-degree slice of the (p, n - p) table.  Compositions of
these maps are therefore exact in integer, rational or float arithmetic
alike.  Each table is built once per algebra, on first use, and is
read-only, since the maps hand out views of it; the general wedge is one
einsum on its table, batched over leading axes.
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
        self._wedge_cache: dict = {}

    def dim(self, p: int) -> int:
        return len(self.basis[p])

    def wedge1(self, p: int) -> np.ndarray:
        """(n, dim(p+1), dim(p)) stack whose slice a is the matrix of
        e^a ^ . : Lambda^p -> Lambda^(p+1) (integer)."""
        return np.moveaxis(self._wedge_table(1, p), 1, 0)

    def hook1(self, p: int) -> np.ndarray:
        """(n, dim(p-1), dim(p)) stack whose slice a is the matrix of the
        interior product e_a _| : Lambda^p -> Lambda^(p-1), the transpose of
        wedge1(p - 1)[a]."""
        return np.swapaxes(self.wedge1(p - 1), 1, 2)

    def star(self, coeffs: np.ndarray, p: int) -> np.ndarray:
        """Hodge star with orientation e^0 ^ ... ^ e^(n-1), batched over the
        leading axes of coeffs.  e_t ^ e_(t^c) = sign vol gives
        *e_t = sign e_(t^c); each output coefficient is gathered from its one
        input, so signed zeros pass through as sign * coefficient."""
        top = self._wedge_table(p, self.n - p)[0]  # top[t, c] vol = e_t ^ e_c
        src = np.abs(top).argmax(axis=0)  # per output c, the t with t^c = c
        return top[src, np.arange(len(src))] * coeffs[..., src]

    def _wedge_table(self, p: int, q: int) -> np.ndarray:
        """Signed (dim(p+q), dim(p), dim(q)) table of the wedge product:
        e_ta ^ e_tb = table[:, ta, tb] on basis tuples (integer, read-only)."""
        key = (p, q)
        if key not in self._wedge_cache:
            out = np.zeros((self.dim(p + q), self.dim(p), self.dim(q)), dtype=np.int64)
            for ia, ta in enumerate(self.basis[p]):
                for ib, tb in enumerate(self.basis[q]):
                    if not set(ta) & set(tb):
                        merged = self.index[p + q][tuple(sorted(ta + tb))]
                        out[merged, ia, ib] = _perm_sign(list(ta) + list(tb))
            out.flags.writeable = False
            self._wedge_cache[key] = out
        return self._wedge_cache[key]

    def wedge(self, a: np.ndarray, p: int, b: np.ndarray, q: int) -> np.ndarray:
        """General wedge product of a p-form and a q-form, batched over the
        leading axes of a and b; exact for integer and object input."""
        return np.einsum("kij,...i,...j->...k", self._wedge_table(p, q), a, b)

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
