"""Conjugacy scan and odd-order powers on whole-matrix entry products,
closed-form charpolys for d <= 3, and the Hermitian-form test on whole
matrices, kept as the reference for `e1forge.oracle`.

Matrices here are (N, d*d) uint8 arrays of entries, and every product is a
`batch_matmul`: d^3 gathers from the field multiplication table per product.
`oracle` runs the same scan and powers on the base-q codes of rows with its
own kernel on a scaled-row table; the tests compare the two answer for
answer.  `oracle.batch_charpoly` sums principal minors for every d; the
closed forms here are hand-expanded, and the tests compare the two.
`oracle` builds GU row by row under the form h(u, w) = sum_l u_l
w_(d-1-l)^q; `unitary_mask` tests M^T J M^(q) = J on whole matrices, and
the tests filter GL_d(q^2) with it.
"""

import numpy as np

from e1forge.bounds import odd_part
from e1forge.oracle import (
    BruteScan,
    OracleError,
    _code,
    _times,
    code_tables,
    mult_table,
)


def entries(g) -> np.ndarray:
    """The (N, d*d) uint8 entries of a group's elements, in its sorted order."""
    return code_tables(g.field, g.d).digits[g.codes].reshape(g.order, -1)


def unitary_mask(field, codes: np.ndarray, d: int, q: int) -> np.ndarray:
    """Which matrices M, given by their row codes, have M^T J M^(q) = J, for
    J the anti-diagonal form."""
    tables = code_tables(field, d)
    frob = m = tables.digits[codes]  # (N, d, d) entries
    squares = mult_table(field).diagonal()
    for _ in range(q.bit_length() - 1):  # x^q is f squarings
        frob = squares.take(frob)
    transposed = _code(m.transpose(0, 2, 1), tables.shifts)
    j_frob = _code(frob[:, ::-1], tables.shifts)  # J M^(q): rows reversed
    form = _times(tables, transposed.T, j_frob.T)
    j_codes = 1 << tables.shifts[::-1]
    return np.logical_and.reduce([r == j for r, j in zip(form, j_codes)])


def _identity(d: int) -> np.ndarray:
    return np.eye(d, dtype=np.uint8).reshape(1, d * d)


def _void_rows(m: np.ndarray) -> np.ndarray:
    """One void scalar per row, compared as the row's byte string."""
    m = np.ascontiguousarray(m)
    return m.view(np.dtype((np.void, m.shape[1]))).ravel()


def batch_matmul(field, a: np.ndarray, b: np.ndarray, d: int) -> np.ndarray:
    """a[n] @ b[n] for every n; a one-row operand is broadcast."""
    table = mult_table(field)
    if len(a) > 1 and len(b) > 1:
        # x y is entry len(table) x + y of the flat table
        flat, a_offsets = table.ravel(), a.astype(np.intp) * len(table)

    def times(ik, kj):
        # the table is symmetric, so a one-row side picks a table row either way
        if len(a) == 1:
            return table[a[0, ik]].take(b[:, kj])
        if len(b) == 1:
            return table[b[0, kj]].take(a[:, ik])
        return flat.take(a_offsets[:, ik] + b[:, kj])

    out = np.zeros((max(len(a), len(b)), d * d), dtype=np.uint8)
    for i in range(d):
        for j in range(d):
            col = out[:, i * d + j]
            for k in range(d):
                col ^= times(i * d + k, k * d + j)
    return out


def batch_charpoly(field, m: np.ndarray, d: int) -> np.ndarray:
    """Charpoly coefficients c_0..c_{d-1} of every row, hand-expanded for
    d <= 3 (characteristic 2, so no signs)."""
    t = mult_table(field)
    e = [m[:, i] for i in range(d * d)]
    if d == 1:
        cols = [e[0]]
    elif d == 2:
        cols = [t[e[0], e[3]] ^ t[e[1], e[2]], e[0] ^ e[3]]
    elif d == 3:
        minor0 = t[e[4], e[8]] ^ t[e[5], e[7]]
        minor1 = t[e[3], e[8]] ^ t[e[5], e[6]]
        minor2 = t[e[3], e[7]] ^ t[e[4], e[6]]
        det = t[e[0], minor0] ^ t[e[1], minor1] ^ t[e[2], minor2]
        minors = minor0 ^ t[e[0], e[8]] ^ t[e[2], e[6]] ^ t[e[0], e[4]] ^ t[e[1], e[3]]
        cols = [det, minors, e[0] ^ e[4] ^ e[8]]
    else:
        raise ValueError("closed-form charpoly for d <= 3 only")
    return np.stack(cols, axis=1)


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
    elems, row = entries(g), np.array([s], dtype=np.uint8)
    xs = batch_matmul(g.field, elems, row, g.d)
    xs_rows = _void_rows(xs)
    (inverse,) = np.nonzero(xs_rows == _void_rows(_identity(g.d)))
    if len(inverse) != 1:
        raise OracleError("element has no unique inverse in the enumerated group")
    row_starts = np.arange(0, g.order * dd, dd)

    def conjugators(t):
        """For each x, the c in Z with x s = c t x, or 0 when there is none."""
        tx = batch_matmul(g.field, t, elems, g.d)
        # t x is invertible, so its first nonzero entry is in its first row
        k = np.full(g.order, g.d - 1)
        for j in range(g.d - 2, -1, -1):
            k = np.where(tx[:, j] != 0, j, k)
        k += row_starts
        c = flat.take(xs.take(k).astype(np.intp) * size + inverse_of.take(tx.take(k)))
        scaled = flat.take((c.astype(np.intp) * size)[:, None] + tx)
        ok = in_center[c] & (_void_rows(scaled) == xs_rows)
        return c * ok

    commuting, inverting = conjugators(row), conjugators(elems[inverse])
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
    powered = batch_pow(g.field, entries(g), odd_part(g.order), g.d)
    return (powered == _identity(g.d)).all(axis=1)
