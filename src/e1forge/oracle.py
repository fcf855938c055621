"""Brute-force ground truth on small matrix groups.

A matrix is held as the base-q codes of its d rows: the row c_0 .. c_(d-1)
is the int32 c_0 q^(d-1) + ... + c_(d-1), and an enumerated group is the
(N, d) array of its elements' codes, sorted lexicographically.  One product
kernel on code columns, `_times`, serves enumeration, closure, the unitary
test, the odd-order powers and the torus check; it gathers from one table of
scaled rows per (field, d).  Entries are gathered from the codes only where
they are read one by one: the closed-form charpolys and the representatives
that the sweep scans.  CLI matrices are flat row-major tuples of
field-element encodings.

GL_d(q) is enumerated by row-space extension (each new row avoids the span
of the previous rows).  GU_d(q) is the stabilizer of the anti-diagonal
Hermitian form inside GL_d(q^2): M^T J M^(q) = J; it is built both by
filtering and by breadth-first closure from a searched generator set, and
the two constructions must agree.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import xor
from typing import NamedTuple

import numpy as np

from . import semisimple as ss
from .autos import unitary_torus
from .bounds import group_order, odd_part
from .gf2k import FieldSpec, central_scalars, field_for, log_exp_tables
from .polyfield import ENUM_BUDGET, MonicPoly


class OracleError(ValueError):
    """Raised on membership failures, closure trouble or a failed
    internal-consistency check (the two GU constructions disagree, an
    enumerated order misses its formula)."""


class OracleConfigError(OracleError):
    """Raised before any work for a configuration the oracle cannot run:
    a budget overrun, an unsupported group kind, degree or field size."""


# --- field tables ---------------------------------------------------------


@lru_cache(maxsize=None)
def mult_table(field: FieldSpec) -> np.ndarray:
    size = field.size
    if size > 256:
        raise OracleConfigError(f"field {field} too large for table-driven scans")
    log, exp = (np.asarray(t, dtype=np.intp) for t in log_exp_tables(field.degree))
    table = exp[log[:, None] + log].astype(np.uint8)
    table[0, :] = 0
    table[:, 0] = 0
    return table


class CodeTables(NamedTuple):
    """Tables on the base-q code c_0 q^(d-1) + ... + c_(d-1) of a length-d
    row; q is a power of 2, so the code of a sum of rows is the XOR of codes."""

    shifts: np.ndarray  # (d,) shift of each digit: 1 << shifts codes the identity
    digits: np.ndarray  # (q^d, d) uint8: the digits of every code
    scaled: np.ndarray  # (q, q^d) int32: scaled[c, v] is the code of c v
    offsets: np.ndarray  # (d, q^d) intp: q^d times digit k of each code
    lead_shift: np.ndarray  # (q^d,) shift of each code's first nonzero digit
    lead_inv: np.ndarray  # (q^d,) inverse of that digit (0 for the zero row)


def _code(m: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """(..., d) digits -> (...) int32 codes."""
    return reduce(xor, (m[..., j].astype(np.int32) << s for j, s in enumerate(shifts)))


@lru_cache(maxsize=None)
def code_tables(field: FieldSpec, d: int) -> CodeTables:
    size = field.size
    shifts = (size.bit_length() - 1) * np.arange(d - 1, -1, -1, dtype=np.int32)
    digits = ((np.arange(size**d)[:, None] >> shifts) & (size - 1)).astype(np.uint8)
    table = mult_table(field)
    scaled = _code(table[:, digits], shifts)
    lead = (digits != 0).argmax(axis=1)
    inverse_of = (table == 1).argmax(axis=1).astype(np.uint8)  # 0 -> 0
    lead_inv = inverse_of[digits[np.arange(len(digits)), lead]]
    offsets = digits.T.astype(np.intp) * size**d
    return CodeTables(shifts, digits, scaled, offsets, shifts[lead], lead_inv)


# --- searches and products on row codes -------------------------------------


def _isin_rows(m: np.ndarray, sorted_rows: np.ndarray) -> np.ndarray:
    """For each row of codes m, whether it occurs among the sorted rows: as
    big-endian bytes a row of nonnegative codes sorts lexicographically."""
    rows, keys = (
        np.ascontiguousarray(r, dtype=">i4").view(f"V{4 * r.shape[1]}").ravel()
        for r in (sorted_rows, m)
    )
    i = np.minimum(np.searchsorted(rows, keys), len(rows) - 1)
    return rows[i] == keys


def _times(tables: CodeTables, a, b) -> list:
    """a b on lists of d code columns; a length-1 column is broadcast.  Row i
    of a b is the XOR over k of a_ik times row k of b, and c v is entry
    q^d c + v of the flattened scaled-row table."""
    flat = tables.scaled.ravel()
    return [
        reduce(xor, (flat.take(o.take(r) + x) for o, x in zip(tables.offsets, b)))
        for r in a
    ]


# --- vectorized batch operations ------------------------------------------


def batch_charpoly(field: FieldSpec, m: np.ndarray, d: int) -> np.ndarray:
    """Charpoly coefficients c_0..c_{d-1} of every row: closed forms for
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
        raise OracleConfigError("closed-form charpoly implemented for d <= 3 only")
    return np.stack(cols, axis=1)


# --- group enumeration -----------------------------------------------------


@dataclass(frozen=True)
class GroupEnum:
    kind: str
    d: int
    q: int
    field: FieldSpec
    codes: np.ndarray  # (N, d) int32 row codes, sorted; columns contiguous
    order: int
    scalars: tuple[int, ...]  # central scalar encodings

    def contains(self, m) -> bool:
        """Binary search for the row codes of m among the sorted codes."""
        if len(m) != self.d * self.d or not all(0 <= x < self.field.size for x in m):
            return False
        shifts = code_tables(self.field, self.d).shifts
        rows = _code(np.array(m, dtype=np.uint8).reshape(1, self.d, self.d), shifts)
        return bool(_isin_rows(rows, self.codes)[0])


def _freeze(kind, d, q, field, codes: np.ndarray, scalars) -> GroupEnum:
    codes = np.asfortranarray(codes)
    return GroupEnum(kind, d, q, field, codes, len(codes), tuple(scalars))


def _enumerate_invertible(field: FieldSpec, d: int, budget: int) -> np.ndarray:
    """The row codes of all invertible d x d matrices, lexicographically
    sorted: extend row by row outside the span, itself XORed from codes."""
    size = field.size
    expected = group_order("GL", d, size)
    if expected > budget:
        raise OracleConfigError(f"|GL_{d}| = {expected} exceeds budget {budget}")
    if size ** (d + 1) > budget:  # entries of the scaled-row table
        raise OracleConfigError(f"code table {size}^{d + 1} exceeds budget {budget}")
    scaled = code_tables(field, d).scaled
    mats = np.zeros((1, 0), dtype=np.int32)  # partial matrices, sorted
    span = np.zeros((1, 1), dtype=np.int32)  # codes of each one's row span
    for k in range(d):
        outside = np.ones((len(mats), scaled.shape[1]), dtype=bool)
        np.put_along_axis(outside, span, False, axis=1)
        # row-major order extends each partial in ascending order: still sorted
        parent, v = np.nonzero(outside)
        mats = np.concatenate([mats[parent], v[:, None].astype(np.int32)], axis=1)
        if k < d - 1:
            span = span[parent][:, None, :] ^ scaled[:, v].T[:, :, None]
            span = span.reshape(len(mats), -1)
    if len(mats) != expected:
        raise OracleError("enumerated GL order does not match the formula")
    return mats


def enumerate_gl(d: int, q: int, budget: int = ENUM_BUDGET) -> GroupEnum:
    field = field_for(q, 1)
    codes = _enumerate_invertible(field, d, budget)
    return _freeze("GL", d, q, field, codes, central_scalars(field, q - 1))


def unitary_mask(field: FieldSpec, codes: np.ndarray, d: int, q: int) -> np.ndarray:
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


def _gu_generators(d: int, q: int, seed: int) -> np.ndarray:
    """Row codes of form-preserving candidates: torus diagonals, the form
    matrix itself, and a bounded random search; certified later by closure
    order.  Draws are tested in blocks of the count expected per hit,
    |M_d(q^2)|/|GU_d(q)|, and the first 6 that pass are kept, as testing
    them one by one would."""
    field = field_for(q, -1)
    shifts = code_tables(field, d).shifts
    # diagonal torus members: a_i * a_{d-1-i}^q = 1
    gens = [np.array(t) << shifts for t in unitary_torus(field, q, d)]
    gens.append(1 << shifts[::-1])  # J is itself unitary
    rng, found = random.Random(seed), []
    per_hit = -(-(field.size ** (d * d)) // group_order("GU", d, q))
    # a multiple of 4 candidates draws whole 32-bit words, so the entry
    # stream does not depend on the block size; 4096 bounds one block
    block, left = min(-(-per_hit // 4) * 4, 4096), 200000
    while left and len(found) < 6:
        n = min(block, left)
        # one byte per entry, masked: the field size divides 256
        cands = np.frombuffer(rng.randbytes(n * d * d), np.uint8) & (field.size - 1)
        cands = _code(cands.reshape(n, d, d), shifts)
        found.extend(cands[unitary_mask(field, cands, d, q)][: 6 - len(found)])
        left -= n
    return np.array(gens + found, dtype=np.int32).reshape(-1, d)


def _closure(field: FieldSpec, gens: np.ndarray, d: int, budget: int) -> np.ndarray:
    """Breadth-first closure of the generator codes from the identity, as
    sorted codes; raises once it holds more than budget elements.  Each
    block of the frontier is sized from the budget left before its products
    are built, so no level allocates past the budget by more than len(gens)
    rows."""
    tables = code_tables(field, d)
    seen = frontier = (1 << tables.shifts)[None]
    while len(frontier):
        found = []
        while len(frontier):
            step = max(1, (budget - len(seen)) // len(gens))
            block, frontier = frontier[:step], frontier[step:]
            new = np.concatenate(
                [np.stack(_times(tables, block.T, g[:, None]), axis=1) for g in gens]
            )
            # distinct by sort: np.unique's plain path imports numpy.ma (slow)
            new = new[np.lexsort(new.T[::-1])]
            fresh = ~_isin_rows(new, seen)
            fresh[1:] &= (new[1:] != new[:-1]).any(axis=1)
            new = new[fresh]
            seen = np.concatenate([seen, new])
            seen = seen[np.lexsort(seen.T[::-1])]
            if len(seen) > budget:
                raise OracleError("closure exceeded budget")
            found.append(new)
        frontier = np.concatenate(found)
    return seen


def enumerate_gu(
    d: int, q: int, budget: int = ENUM_BUDGET, seed: int = 0
) -> GroupEnum:
    """GU_d(q) built twice, by the Hermitian-form filter and by closure from
    searched generators; raises unless the two constructions agree."""
    field = field_for(q, -1)
    expected = group_order("GU", d, q)
    if expected > budget:
        raise OracleConfigError(f"|GU_{d}({q})| = {expected} exceeds budget {budget}")
    codes = _enumerate_invertible(field, d, budget)  # sorted
    filtered = codes[unitary_mask(field, codes, d, q)]
    closed = _closure(field, _gu_generators(d, q, seed), d, budget)
    if len(closed) != expected:
        raise OracleError(
            f"closure order {len(closed)} does not match formula {expected}"
        )
    if not np.array_equal(filtered, closed):
        raise OracleError("filter-built and closure-built GU disagree")
    return _freeze("GU", d, q, field, filtered, central_scalars(field, q + 1))


# --- brute-force conjugacy scan ---------------------------------------------


@dataclass(frozen=True)
class BruteScan:
    centralizer: int  # |C_G(s)|
    real: bool  # s conjugate to s^-1 in G
    projective_centralizer: int  # |C_{G/Z}(sZ)|
    projective_real: bool  # sZ conjugate to s^-1 Z in G/Z


def brute_scan(g: GroupEnum, s) -> BruteScan:
    """Centralizer orders and realness of s in G and of its image in G/Z.

    x centralizes sZ when x s = c s x, and inverts it when x s = c s^-1 x,
    for some c in Z = g.scalars; c = 1 gives the answers in G itself.  Only
    one scalar can work for each x: c is (x s)_k / (t x)_k at the first
    nonzero digit k of row 0 of t x; then x s = c t x is compared once, as d
    row codes, and c is looked up in Z.  Row v of x becomes T_s[v] in x s,
    and row i of t x is the XOR over k of t_ik (row k of x)."""
    if not g.contains(s):
        raise OracleError("element is not in the enumerated group")
    size, d = g.field.size, g.d
    tables = code_tables(g.field, d)
    scaled, cols = tables.scaled, g.codes.T
    flat = scaled.ravel()  # c v is entry q^d c + v
    in_center = np.zeros(size, dtype=bool)
    in_center[list(g.scalars)] = True
    s = np.array(s, dtype=np.uint8).reshape(d, d)
    s_rows = _code(s, tables.shifts)
    t_s = reduce(xor, (scaled[v, c] for v, c in zip(tables.digits.T, s_rows)))
    xs = [t_s.take(col) for col in cols]
    ident = 1 << tables.shifts
    (inverse,) = np.nonzero(np.logical_and.reduce([r == i for r, i in zip(xs, ident)]))
    if len(inverse) != 1:
        raise OracleError("element has no unique inverse in the enumerated group")

    def conjugators(t):
        """For each x, the c in Z with x s = c t x, or 0 when there is none."""
        tx = [
            reduce(xor, (scaled[c].take(x) for c, x in zip(r, cols) if c)) for r in t
        ]
        # t x is invertible, so row 0 has a first nonzero digit
        lead = tx[0]
        num = (xs[0] >> tables.lead_shift.take(lead)) & (size - 1)
        c = mult_table(g.field).ravel().take(num * size + tables.lead_inv.take(lead))
        offset = c.astype(np.intp) * len(tables.digits)
        ok = in_center.take(c)
        for row_xs, row_tx in zip(xs, tx):
            ok &= flat.take(offset + row_tx) == row_xs
        return c * ok

    s_inv = tables.digits[g.codes[inverse[0]]]
    commuting, inverting = conjugators(s), conjugators(s_inv)
    projective = int(np.count_nonzero(commuting))
    if projective % len(g.scalars):
        raise OracleError("projective centralizer count not divisible by center")
    return BruteScan(
        int(np.count_nonzero(commuting == 1)),
        bool((inverting == 1).any()),
        projective // len(g.scalars),
        bool(inverting.any()),
    )


# --- odd-order bucketing -----------------------------------------------------


def odd_order_mask(g: GroupEnum) -> np.ndarray:
    """Elements of odd order: s^m = 1 for m the odd part of |G|, on row codes."""
    tables = code_tables(g.field, g.d)
    power, base, e = None, g.codes.T, odd_part(g.order)
    while e:
        if e & 1:
            power = base if power is None else _times(tables, power, base)
        e >>= 1
        if e:
            base = _times(tables, base, base)
    return np.logical_and.reduce([r == 1 << i for r, i in zip(power, tables.shifts)])


def charpoly_buckets(g: GroupEnum, mask: np.ndarray) -> dict:
    """Map charpoly coefficient tuple -> ascending indices of the masked
    elements carrying it."""
    (indices,) = np.nonzero(mask)
    entries = code_tables(g.field, g.d).digits[g.codes[indices]]
    keys = batch_charpoly(g.field, entries.reshape(len(indices), -1), g.d)
    order = np.lexsort(keys.T[::-1])  # stable, so each bucket stays ascending
    keys, indices = keys[order], indices[order]
    starts = np.flatnonzero(np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)])
    return {
        tuple(int(x) for x in keys[i]): group.tolist()
        for i, group in zip(starts, np.split(indices, starts[1:]))
    }


# --- torus normalizer regular-action check -----------------------------------


def conjugation0_check(d: int, q: int, budget: int = ENUM_BUDGET) -> dict:
    """Permutation matrices act regularly on the diagonal conjugates of a
    regular diagonal element (H = GL_d(q), M = diagonal torus)."""
    if q - 1 < d:
        raise OracleConfigError("need q - 1 >= d distinct diagonal entries")
    # the scaled-row table; as q > d, its q^(d+1) entries also bound the d! sigmas
    if q ** (d + 1) > budget:
        raise OracleConfigError(f"code table {q}^{d + 1} exceeds budget {budget}")
    tables = code_tables(field_for(q, 1), d)
    ident, entries = 1 << tables.shifts, np.arange(1, d + 1)  # d distinct nonzero
    t = (entries << tables.shifts)[:, None]  # one row code per column
    sigmas = np.array(list(itertools.permutations(range(d))))
    # all diagonal torus members conjugate to t (same entry multiset)
    conjugates = {tuple((entries[s] << tables.shifts).tolist()) for s in sigmas}
    # row i of a permutation matrix is e_sigma(i); its transpose inverts it
    perms, inverses = ident[sigmas].T, ident[np.argsort(sigmas, axis=1)].T
    if not all((r == i).all() for r, i in zip(_times(tables, perms, inverses), ident)):
        return {"ok": False, "reason": "transpose is not the inverse"}
    # regularity: the orbit map sigma -> sigma t sigma^{-1} is a bijection
    # from the permutation group onto the conjugate set
    images = _times(tables, _times(tables, perms, t), inverses)
    orbit = set(zip(*(r.tolist() for r in images)))
    if len(orbit) != len(sigmas):
        return {"ok": False, "reason": "action not free"}
    ok = orbit == conjugates
    return {"ok": ok, "orbit_size": len(sigmas), "conjugate_count": len(conjugates)}


# --- the verification sweep ---------------------------------------------------


def verify_sweep(
    kind: str, d: int, q: int, budget: int = ENUM_BUDGET, seed: int = 0
) -> dict:
    """Formula-vs-brute-force sweep over all odd-order classes of one group."""
    start = time.time()
    if not 1 <= d <= 3:
        raise OracleConfigError(
            f"verify_sweep supports 1 <= d <= 3 (closed-form charpolys), not {d}"
        )
    if kind == "GL":
        g = enumerate_gl(d, q, budget)
        epsilon = 1
    elif kind == "GU":
        g = enumerate_gu(d, q, budget, seed=seed)
        epsilon = -1
    else:
        raise OracleConfigError(f"verify_sweep supports GL and GU, not {kind!r}")
    full_scan = g.order <= 100

    checks = {
        name: {"tested": 0, "passed": 0}
        for name in (
            "order_formula",
            "centralizer_formula",
            "realness_formula",
            "class_equals_charpoly_bucket",
            "projective_centralizer_formula",
            "projective_realness",
            "projective_centralizer_comparison",
            "involution_centralizer",
            "regular_torus_action",
        )
    }

    def record(name, ok):
        checks[name]["tested"] += 1
        checks[name]["passed"] += bool(ok)

    record("order_formula", g.order == group_order(kind, d, q))

    digits = code_tables(g.field, d).digits
    mask = odd_order_mask(g)
    buckets = charpoly_buckets(g, mask)
    for coeffs in sorted(buckets):
        indices = buckets[coeffs]
        reps = indices if full_scan else indices[:1]
        cls = ss.semisimple_class(epsilon, d, q, MonicPoly(g.field, coeffs))
        formula_order = ss.centralizer_shape(cls).order
        formula_real = ss.is_real_class(cls)
        formula_proj_order = ss.pgl_centralizer_order(cls)
        formula_proj_real = ss.pgl_is_real(cls)
        scans = [brute_scan(g, digits[g.codes[i]].ravel().tolist()) for i in reps]
        for scan in scans:
            record("centralizer_formula", scan.centralizer == formula_order)
            record("realness_formula", scan.real == formula_real)
            record(
                "projective_centralizer_formula",
                scan.projective_centralizer == formula_proj_order,
            )
            record("projective_realness", scan.projective_real == formula_proj_real)
            record(
                "projective_centralizer_comparison",
                scan.projective_centralizer <= scan.centralizer,
            )
        # the conjugacy class of the representative fills its charpoly
        # bucket exactly: |class| = |G|/|C| matches the bucket size
        class_size = g.order // scans[0].centralizer
        record("class_equals_charpoly_bucket", class_size == len(indices))

    for l in range(1, d // 2 + 1):
        inv = ss.involution_with_blocks(d, l, q, epsilon)
        scan = brute_scan(g, tuple(x for row in inv.rows for x in row))
        record("involution_centralizer", scan.centralizer == inv.centralizer_order)

    if kind == "GL" and q - 1 >= d:
        record("regular_torus_action", conjugation0_check(d, q, budget)["ok"])

    failed = {k: v for k, v in checks.items() if v["passed"] != v["tested"]}
    return {
        "group": f"{kind}_{d}({q})",
        "order": g.order,
        "odd_order_elements": int(mask.sum()),
        "charpoly_classes": len(buckets),
        "full_scan": full_scan,
        "checks": [
            {"name": k, "tested": v["tested"], "passed": v["passed"]}
            for k, v in checks.items()
            if v["tested"]
        ],
        "ok": not failed,
        "elapsed": round(time.time() - start, 3),
    }
