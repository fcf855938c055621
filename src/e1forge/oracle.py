"""Brute-force ground truth on small matrix groups.

Matrices are flat row-major tuples of field-element encodings; enumerated
groups additionally hold a numpy uint8 array of shape (N, d*d).  Every
computation on group elements (products, powers, charpolys, the unitary
test, centralizer and realness scans) runs on such arrays as gathers from
one multiplication table, which fits in 256x256 for every supported field.
The scalar matrix helpers serve only the closure construction of GU and
the torus-normalizer check, so those stay independent of the batch path.

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
from functools import lru_cache

import numpy as np

from . import semisimple as ss
from .autos import canonical_torus_rep, unitary_diagonal
from .bounds import group_order, odd_part
from .gf2k import FieldSpec, central_scalars, field_for, log_exp_tables
from .polyfield import MonicPoly

DEFAULT_BUDGET = 10**7


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


# --- small dense matrix helpers (flat tuples) -----------------------------


def mat_identity(d: int) -> tuple[int, ...]:
    return tuple(1 if i == j else 0 for i in range(d) for j in range(d))


def _diag(entries) -> tuple[int, ...]:
    d = len(entries)
    return tuple(entries[i] if i == j else 0 for i in range(d) for j in range(d))


def mat_mul(field: FieldSpec, a, b, d: int) -> tuple[int, ...]:
    out = [0] * (d * d)
    for i in range(d):
        for k in range(d):
            aik = a[i * d + k]
            if aik:
                for j in range(d):
                    out[i * d + j] ^= field.mul(aik, b[k * d + j])
    return tuple(out)


def mat_inv(field: FieldSpec, m, d: int) -> tuple[int, ...]:
    """Gauss-Jordan inverse; raises if singular."""
    a = [list(m[i * d : (i + 1) * d]) for i in range(d)]
    inv = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for col in range(d):
        pivot = next((r for r in range(col, d) if a[r][col]), None)
        if pivot is None:
            raise OracleError("matrix not invertible")
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = field.inv(a[col][col])
        a[col] = [field.mul(scale, x) for x in a[col]]
        inv[col] = [field.mul(scale, x) for x in inv[col]]
        for r in range(d):
            if r != col and a[r][col]:
                coef = a[r][col]
                a[r] = [x ^ field.mul(coef, y) for x, y in zip(a[r], a[col])]
                inv[r] = [x ^ field.mul(coef, y) for x, y in zip(inv[r], inv[col])]
    return tuple(x for row in inv for x in row)


# --- vectorized batch operations ------------------------------------------


def batch_matmul(field: FieldSpec, a: np.ndarray, b: np.ndarray, d: int) -> np.ndarray:
    """a[n] @ b[n] for every n; a one-row operand is broadcast."""
    table = mult_table(field)

    def times(x, y):
        # the table is symmetric, so a one-row side picks a table row either way
        if len(x) == 1:
            return table[x[0]].take(y)
        if len(y) == 1:
            return table[y[0]].take(x)
        return table[x, y]

    out = np.zeros((max(len(a), len(b)), d * d), dtype=np.uint8)
    for i in range(d):
        for j in range(d):
            col = out[:, i * d + j]
            for k in range(d):
                col ^= times(a[:, i * d + k], b[:, k * d + j])
    return out


def batch_pow(field: FieldSpec, elems: np.ndarray, e: int, d: int) -> np.ndarray:
    result = np.tile(np.array(mat_identity(d), dtype=np.uint8), (len(elems), 1))
    base = elems
    while e:
        if e & 1:
            result = batch_matmul(field, result, base, d)
        e >>= 1
        if e:
            base = batch_matmul(field, base, base, d)
    return result


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
    elems: np.ndarray  # (N, d*d) uint8, lexicographically sorted
    order: int
    scalars: tuple[int, ...]  # central scalar encodings

    def contains(self, m) -> bool:
        """Binary search for m among the sorted rows of elems."""
        if len(m) != self.d * self.d or not all(0 <= x < self.field.size for x in m):
            return False
        # a void view compares each row as one byte string
        rows = self.elems.view(np.dtype((np.void, self.d * self.d))).ravel()
        key = np.array(m, dtype=np.uint8).view(rows.dtype)[0]
        i = int(np.searchsorted(rows, key))
        return i < len(rows) and rows[i] == key

    def rows(self):
        for row in self.elems:
            yield tuple(int(x) for x in row)


def _freeze(kind, d, q, field, mats, scalars) -> GroupEnum:
    mats = sorted(mats)
    arr = np.array(mats, dtype=np.uint8)
    return GroupEnum(kind, d, q, field, arr, len(mats), tuple(scalars))


def _enumerate_invertible(field: FieldSpec, d: int, budget: int) -> list:
    """All invertible d x d matrices: extend row by row outside the span."""
    expected = 1
    size = field.size
    for i in range(d):
        expected *= size**d - size**i
    if expected > budget:
        raise OracleConfigError(f"|GL_{d}| = {expected} exceeds budget {budget}")
    vectors = [
        tuple((v // size**i) % size for i in range(d)) for v in range(size**d)
    ]
    out = []

    def extend(rows, span):
        if len(rows) == d - 1:
            flat = tuple(x for row in rows for x in row)
            for v in vectors:
                if v not in span:
                    out.append(flat + v)
            return
        for v in vectors:
            if v in span:
                continue
            new_span = set()
            for c in range(size):
                cv = tuple(field.mul(c, x) for x in v)
                for s in span:
                    new_span.add(tuple(a ^ b for a, b in zip(s, cv)))
            extend(rows + [v], new_span)

    extend([], {tuple([0] * d)})
    assert len(out) == expected
    return out


def enumerate_gl(d: int, q: int, budget: int = DEFAULT_BUDGET) -> GroupEnum:
    field = field_for(q, 1)
    mats = _enumerate_invertible(field, d, budget)
    g = _freeze("GL", d, q, field, mats, central_scalars(field, q - 1))
    if g.order != group_order("GL", d, q).value:
        raise OracleError("enumerated GL order does not match the formula")
    return g


def _form_matrix(d: int) -> tuple[int, ...]:
    """The anti-diagonal Hermitian form matrix J."""
    return tuple(1 if i + j == d - 1 else 0 for i in range(d) for j in range(d))


def unitary_mask(field: FieldSpec, m: np.ndarray, d: int, q: int) -> np.ndarray:
    """Rows M with M^T J M^(q) = J."""
    table = mult_table(field)
    frob = m
    for _ in range(q.bit_length() - 1):  # x^q is f squarings
        frob = table[frob, frob]
    # J M^(q) is M^(q) with its rows reversed
    form = batch_matmul(
        field,
        m.reshape(-1, d, d).transpose(0, 2, 1).reshape(-1, d * d),
        frob.reshape(-1, d, d)[:, ::-1].reshape(-1, d * d),
        d,
    )
    return (form == np.array(_form_matrix(d), dtype=np.uint8)).all(axis=1)


def _gu_filter(d: int, q: int, budget: int) -> list:
    field = field_for(q, -1)
    mats = _enumerate_invertible(field, d, budget)
    mask = unitary_mask(field, np.array(mats, dtype=np.uint8), d, q)
    return list(itertools.compress(mats, mask))


def _gu_generators(d: int, q: int, seed: int) -> list:
    """Form-preserving candidates: torus diagonals, the form matrix itself,
    and a bounded random search; certified later by closure order."""
    field = field_for(q, -1)
    gens = []
    # diagonal torus members: a_i * a_{d-1-i}^q = 1
    half = d // 2
    choices = range(1, field.size)
    mids = [(m,) for m in central_scalars(field, q + 1)] if d % 2 else [()]
    for front in itertools.product(choices, repeat=half):
        for mid in mids:
            gens.append(_diag(unitary_diagonal(field, q, front, mid)))
    gens.append(_form_matrix(d))  # J is itself unitary
    rng = random.Random(seed)
    found = 0
    for _ in range(200000):
        cand = tuple(rng.randrange(field.size) for _ in range(d * d))
        if unitary_mask(field, np.array([cand], dtype=np.uint8), d, q)[0]:
            gens.append(cand)
            found += 1
            if found >= 6:
                break
    return gens


def _closure(field: FieldSpec, gens: list, d: int, budget: int) -> set:
    ident = mat_identity(d)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = mat_mul(field, m, g, d)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
                    if len(seen) > budget:
                        raise OracleError("closure exceeded budget")
        frontier = nxt
    return seen


def enumerate_gu(
    d: int, q: int, budget: int = DEFAULT_BUDGET, seed: int = 0
) -> GroupEnum:
    """GU_d(q) built twice, by the Hermitian-form filter and by closure from
    searched generators; raises unless the two constructions agree."""
    field = field_for(q, -1)
    expected = group_order("GU", d, q).value
    if expected > budget:
        raise OracleConfigError(
            f"|GU_{d}({q})| = {expected} exceeds budget {budget}"
        )
    filtered = set(_gu_filter(d, q, budget))
    closed = _closure(field, _gu_generators(d, q, seed), d, budget)
    if len(closed) != expected:
        raise OracleError(
            f"closure order {len(closed)} does not match formula {expected}"
        )
    if filtered != closed:
        raise OracleError("filter-built and closure-built GU disagree")
    g = _freeze("GU", d, q, field, filtered, central_scalars(field, q + 1))
    if g.order != expected:
        raise OracleError("enumerated GU order does not match the formula")
    return g


def quotient_pgl(g: GroupEnum) -> GroupEnum:
    kind = "PGL" if g.kind == "GL" else "PGU"
    epsilon = 1 if g.kind == "GL" else -1
    reps = {canonical_torus_rep(m, g.q, epsilon) for m in g.rows()}
    out = _freeze(kind, g.d, g.q, g.field, reps, (1,))
    if out.order * len(g.scalars) != g.order:
        raise OracleError("projective quotient order mismatch")
    return out


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
    for some central c; scalars[0] = 1 gives the answers in G itself.
    x s, s x and s^-1 x are each computed once over all x.
    """
    if not g.contains(s):
        raise OracleError("element is not in the enumerated group")
    table = mult_table(g.field)
    row = np.array([s], dtype=np.uint8)
    xs = batch_matmul(g.field, g.elems, row, g.d)
    ident = np.array(mat_identity(g.d), dtype=np.uint8)
    (inverse,) = np.nonzero((xs == ident).all(axis=1))
    if len(inverse) != 1:
        raise OracleError("element has no unique inverse in the enumerated group")

    def conjugators(t):
        """For each central c, the number of x with x s = c t x."""
        tx = batch_matmul(g.field, t, g.elems, g.d)
        return [int((xs == table[c][tx]).all(axis=1).sum()) for c in g.scalars]

    commuting, inverting = conjugators(row), conjugators(g.elems[inverse])
    n_center = len(g.scalars)
    if sum(commuting) % n_center:
        raise OracleError("projective centralizer count not divisible by center")
    return BruteScan(
        commuting[0], inverting[0] > 0, sum(commuting) // n_center, sum(inverting) > 0
    )


# --- odd-order bucketing -----------------------------------------------------


def odd_order_mask(g: GroupEnum) -> np.ndarray:
    """Elements of odd order: s^m = 1 with m the odd part of |G|."""
    powered = batch_pow(g.field, g.elems, odd_part(g.order), g.d)
    return (powered == np.array(mat_identity(g.d), dtype=np.uint8)).all(axis=1)


def charpoly_buckets(g: GroupEnum, mask: np.ndarray) -> dict:
    """Map charpoly coefficient tuple -> ascending indices of the masked
    elements carrying it."""
    (indices,) = np.nonzero(mask)
    keys, inverse = np.unique(
        batch_charpoly(g.field, g.elems[indices], g.d), axis=0, return_inverse=True
    )
    inverse = inverse.ravel()
    groups = np.split(
        indices[np.argsort(inverse, kind="stable")],
        np.cumsum(np.bincount(inverse))[:-1],
    )
    return {
        tuple(int(x) for x in key): group.tolist() for key, group in zip(keys, groups)
    }


# --- torus normalizer regular-action check -----------------------------------


def conjugation0_check(d: int, q: int, budget: int = DEFAULT_BUDGET) -> dict:
    """Permutation matrices act regularly on the diagonal conjugates of a
    regular diagonal element (H = GL_d(q), M = diagonal torus)."""
    if q - 1 < d:
        raise OracleConfigError("need q - 1 >= d distinct diagonal entries")
    field = field_for(q, 1)
    entries = list(range(1, d + 1))  # d distinct nonzero encodings
    t = _diag(entries)
    # all diagonal torus members conjugate to t (same entry multiset)
    conjugates = {_diag(perm) for perm in itertools.permutations(entries)}
    perms = [
        tuple(1 if j == perm[i] else 0 for i in range(d) for j in range(d))
        for perm in itertools.permutations(range(d))
    ]
    # regularity: the orbit map sigma -> sigma t sigma^{-1} is a bijection
    # from the permutation group onto the conjugate set
    images = {}
    for p in perms:
        img = mat_mul(field, mat_mul(field, p, t, d), mat_inv(field, p, d), d)
        if img in images:
            return {"ok": False, "reason": "action not free"}
        images[img] = p
    ok = set(images) == conjugates
    return {
        "ok": ok,
        "orbit_size": len(images),
        "conjugate_count": len(conjugates),
    }


# --- the verification sweep ---------------------------------------------------


def verify_sweep(
    kind: str,
    d: int,
    q: int,
    budget: int = DEFAULT_BUDGET,
    full_scan: bool | None = None,
    seed: int = 0,
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
    if full_scan is None:
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

    record("order_formula", g.order == group_order(kind, d, q).value)

    mask = odd_order_mask(g)
    buckets = charpoly_buckets(g, mask)
    for coeffs in sorted(buckets):
        indices = buckets[coeffs]
        reps = indices if full_scan else indices[:1]
        charpoly = MonicPoly(g.field, coeffs)
        cls = ss.semisimple_class(epsilon, d, q, charpoly)
        formula_order = ss.centralizer_shape(cls).order
        formula_real = ss.is_real_class(cls)
        formula_proj_order = ss.pgl_centralizer_order(cls)
        formula_proj_real = ss.pgl_is_real(cls)
        scans = [brute_scan(g, tuple(int(x) for x in g.elems[i])) for i in reps]
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
        record(
            "class_equals_charpoly_bucket",
            g.order // scans[0].centralizer == len(indices),
        )

    for l in range(1, d // 2 + 1):
        inv = ss.involution_with_blocks(d, l, q, epsilon)
        m = tuple(x for row in inv.rows for x in row)
        record(
            "involution_centralizer",
            brute_scan(g, m).centralizer == inv.centralizer_order,
        )

    if kind == "GL" and q - 1 >= d:
        record("regular_torus_action", conjugation0_check(d, q)["ok"])

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
