"""Conjugacy scan and odd-order powers on whole-matrix products, kept as the
reference for `e1forge.oracle`.

Every product here is a `batch_matmul` over the (N, d*d) element array: d^3
table gathers per product.  `oracle` runs the same scan and powers on the
base-q codes of rows; the tests compare the two answer for answer.
"""

import numpy as np

from e1forge.bounds import odd_part
from e1forge.oracle import (
    BruteScan,
    OracleError,
    _identity,
    _void_rows,
    batch_matmul,
    mult_table,
)


def brute_scan(g, s) -> BruteScan:
    """The four answers of `oracle.brute_scan`: x s, s x and s^-1 x as batch
    products, c read off the first nonzero entry k of t x as
    (x s)_k / (t x)_k, and x s = c t x compared as whole rows."""
    if not g.contains(s):
        raise OracleError("element is not in the enumerated group")
    size, dd = g.field.size, g.d * g.d
    table = mult_table(g.field)
    inverse_of = (table == 1).argmax(axis=1)  # 0 -> 0
    flat = table.ravel()  # c y is entry size c + y
    in_center = np.zeros(size, dtype=bool)
    in_center[list(g.scalars)] = True
    row = np.array([s], dtype=np.uint8)
    xs = batch_matmul(g.field, g.elems, row, g.d)
    xs_rows = _void_rows(xs)
    (inverse,) = np.nonzero(xs_rows == _void_rows(_identity(g.d)))
    if len(inverse) != 1:
        raise OracleError("element has no unique inverse in the enumerated group")
    row_starts = np.arange(0, g.order * dd, dd)

    def conjugators(t):
        """For each x, the c in Z with x s = c t x, or 0 when there is none."""
        tx = batch_matmul(g.field, t, g.elems, g.d)
        # t x is invertible, so its first nonzero entry is in its first row
        k = np.full(g.order, g.d - 1)
        for j in range(g.d - 2, -1, -1):
            k = np.where(tx[:, j] != 0, j, k)
        k += row_starts
        c = flat.take(xs.take(k).astype(np.intp) * size + inverse_of.take(tx.take(k)))
        scaled = flat.take((c.astype(np.intp) * size)[:, None] + tx)
        ok = in_center[c] & (_void_rows(scaled) == xs_rows)
        return c * ok

    commuting, inverting = conjugators(row), conjugators(g.elems[inverse])
    n_center = len(g.scalars)
    projective = int(np.count_nonzero(commuting))
    if projective % n_center:
        raise OracleError("projective centralizer count not divisible by center")
    return BruteScan(
        int(np.count_nonzero(commuting == 1)),
        bool((inverting == 1).any()),
        projective // n_center,
        bool(inverting.any()),
    )


def batch_pow(field, elems, e, d):
    """elems[n]^e for every n, by square and multiply from the identity."""
    result = np.tile(_identity(d), (len(elems), 1))
    base = elems
    while e:
        if e & 1:
            result = batch_matmul(field, result, base, d)
        e >>= 1
        if e:
            base = batch_matmul(field, base, base, d)
    return result


def odd_order_mask(g) -> np.ndarray:
    """Elements of odd order: s^m = 1 with m the odd part of |G|."""
    powered = batch_pow(g.field, g.elems, odd_part(g.order), g.d)
    return (powered == _identity(g.d)).all(axis=1)
