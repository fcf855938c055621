"""Brute-force ground truth on small matrix groups.

Matrices are flat row-major tuples of field-element encodings; enumerated
groups additionally hold a numpy uint8 array of shape (N, d*d) so that
centralizer/realness/conjugacy scans run as vectorized table lookups
(multiplication tables fit in 256x256 for every supported field).

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

from .autos import canonical_torus_rep, unitary_diagonal
from .bounds import group_order, odd_part
from .gf2k import FieldSpec, central_scalars, field_for
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
    table = np.zeros((size, size), dtype=np.uint8)
    for a in range(size):
        for b in range(a, size):
            v = field.mul(a, b)
            table[a, b] = v
            table[b, a] = v
    return table


# --- small dense matrix helpers (flat tuples) -----------------------------


def mat_identity(d: int) -> tuple[int, ...]:
    return tuple(1 if i == j else 0 for i in range(d) for j in range(d))


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


def mat_charpoly(field: FieldSpec, m, d: int) -> MonicPoly:
    """Closed-form characteristic polynomial for d <= 3 (characteristic 2)."""
    if d == 1:
        return MonicPoly(field, (m[0],))
    if d == 2:
        trace = m[0] ^ m[3]
        det = field.mul(m[0], m[3]) ^ field.mul(m[1], m[2])
        return MonicPoly(field, (det, trace))
    if d == 3:
        trace = m[0] ^ m[4] ^ m[8]
        minors = (
            field.mul(m[4], m[8]) ^ field.mul(m[5], m[7])
            ^ field.mul(m[0], m[8]) ^ field.mul(m[2], m[6])
            ^ field.mul(m[0], m[4]) ^ field.mul(m[1], m[3])
        )
        det = (
            field.mul(m[0], field.mul(m[4], m[8]) ^ field.mul(m[5], m[7]))
            ^ field.mul(m[1], field.mul(m[3], m[8]) ^ field.mul(m[5], m[6]))
            ^ field.mul(m[2], field.mul(m[3], m[7]) ^ field.mul(m[4], m[6]))
        )
        return MonicPoly(field, (det, minors, trace))
    raise OracleError("closed-form charpoly implemented for d <= 3 only")


def mat_order(field: FieldSpec, m, d: int, limit: int = 10**6) -> int:
    acc = m
    ident = mat_identity(d)
    for n in range(1, limit + 1):
        if acc == ident:
            return n
        acc = mat_mul(field, acc, m, d)
    raise OracleError("element order exceeds limit")


# --- vectorized batch operations ------------------------------------------


def batch_right(field: FieldSpec, elems: np.ndarray, s, d: int) -> np.ndarray:
    """elems[n] @ s for every n."""
    table = mult_table(field)
    out = np.zeros_like(elems)
    for i in range(d):
        for j in range(d):
            col = out[:, i * d + j]
            for k in range(d):
                skj = s[k * d + j]
                if skj:
                    col ^= table[elems[:, i * d + k], skj]
    return out


def batch_left(field: FieldSpec, s, elems: np.ndarray, d: int) -> np.ndarray:
    """s @ elems[n] for every n."""
    table = mult_table(field)
    out = np.zeros_like(elems)
    for i in range(d):
        for j in range(d):
            col = out[:, i * d + j]
            for k in range(d):
                sik = s[i * d + k]
                if sik:
                    col ^= table[sik, elems[:, k * d + j]]
    return out


def batch_matmul(field: FieldSpec, a: np.ndarray, b: np.ndarray, d: int) -> np.ndarray:
    table = mult_table(field)
    out = np.zeros_like(a)
    for i in range(d):
        for j in range(d):
            col = out[:, i * d + j]
            for k in range(d):
                col ^= table[a[:, i * d + k], b[:, k * d + j]]
    return out


def batch_pow(field: FieldSpec, elems: np.ndarray, e: int, d: int) -> np.ndarray:
    ident = np.tile(np.array(mat_identity(d), dtype=np.uint8), (elems.shape[0], 1))
    result = ident
    base = elems
    while e:
        if e & 1:
            result = batch_matmul(field, result, base, d)
        e >>= 1
        if e:
            base = batch_matmul(field, base, base, d)
    return result


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


def is_unitary_matrix(field: FieldSpec, m, d: int, q: int) -> bool:
    """M^T J M^(q) = J with J the anti-diagonal form matrix."""
    # (M^T J M^(q))[i][j] = sum_k M[k][i] * M[d-1-k][j]^q
    for i in range(d):
        for j in range(d):
            acc = 0
            for k in range(d):
                a = m[k * d + i]
                if a:
                    acc ^= field.mul(a, field.pow(m[(d - 1 - k) * d + j], q))
            if acc != (1 if i + j == d - 1 else 0):
                return False
    return True


def _gu_filter(d: int, q: int, budget: int) -> list:
    field = field_for(q, -1)
    mats = _enumerate_invertible(field, d, budget)
    return [m for m in mats if is_unitary_matrix(field, m, d, q)]


def _gu_generators(d: int, q: int, seed: int) -> list:
    """Form-preserving candidates: torus diagonals, the form matrix itself,
    and a bounded random search; certified later by closure order."""
    field = field_for(q, -1)
    gens = []
    # diagonal torus members: a_i * a_{d-1-i}^q = 1
    half = d // 2
    choices = range(1, field.size)
    mids = [(m,) for m in central_scalars(field, q + 1)] if d % 2 else [()]

    def diag(entries):
        m = [0] * (d * d)
        for i, a in enumerate(entries):
            m[i * d + i] = a
        return tuple(m)

    for front in itertools.product(choices, repeat=half):
        for mid in mids:
            gens.append(diag(unitary_diagonal(field, q, front, mid)))
    # the anti-diagonal form matrix J is itself unitary
    j = [0] * (d * d)
    for i in range(d):
        j[i * d + (d - 1 - i)] = 1
    gens.append(tuple(j))
    rng = random.Random(seed)
    found = 0
    for _ in range(200000):
        cand = tuple(rng.randrange(field.size) for _ in range(d * d))
        try:
            mat_inv(field, cand, d)
        except OracleError:
            continue
        if is_unitary_matrix(field, cand, d, q):
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


# --- brute-force predicates -------------------------------------------------


def _require_member(g: GroupEnum, s) -> None:
    if not g.contains(s):
        raise OracleError("element is not in the enumerated group")


def _conjugator_masks(g: GroupEnum, s, targets):
    """For each t in targets, the mask of the elements x with x s = t x.

    x s is computed once for all targets; masks are made lazily, so a
    caller that stops early skips the rest.
    """
    xs = batch_right(g.field, g.elems, s, g.d)
    for t in targets:
        yield (xs == batch_left(g.field, t, g.elems, g.d)).all(axis=1)


def _scaled(g: GroupEnum, m):
    """c m for every central scalar c."""
    return (tuple(g.field.mul(c, x) for x in m) for c in g.scalars)


def brute_centralizer(g: GroupEnum, s) -> int:
    _require_member(g, s)
    return int(next(_conjugator_masks(g, s, [s])).sum())


def brute_is_real(g: GroupEnum, s) -> bool:
    _require_member(g, s)
    sinv = mat_inv(g.field, s, g.d)
    return bool(next(_conjugator_masks(g, s, [sinv])).any())


def projective_centralizer(g: GroupEnum, s) -> int:
    """|C_PGL(image of s)| computed through lifts: x s x^{-1} = c s."""
    _require_member(g, s)
    total = sum(int(m.sum()) for m in _conjugator_masks(g, s, _scaled(g, s)))
    if total % len(g.scalars):
        raise OracleError("projective centralizer count not divisible by center")
    return total // len(g.scalars)


def projective_is_real(g: GroupEnum, s) -> bool:
    """Image of s real in PGL: x s x^{-1} = c s^{-1} for some central c."""
    _require_member(g, s)
    sinv = mat_inv(g.field, s, g.d)
    return any(m.any() for m in _conjugator_masks(g, s, _scaled(g, sinv)))


# --- odd-order bucketing -----------------------------------------------------


def odd_order_mask(g: GroupEnum) -> np.ndarray:
    """Elements of odd order: s^m = 1 with m the odd part of |G|."""
    m = odd_part(g.order)
    powered = batch_pow(g.field, g.elems, m, g.d)
    ident = np.array(mat_identity(g.d), dtype=np.uint8)
    return (powered == ident).all(axis=1)


def charpoly_buckets(g: GroupEnum, mask: np.ndarray) -> dict:
    """Map charpoly coefficient tuple -> indices of elements carrying it."""
    buckets: dict = {}
    for idx in np.nonzero(mask)[0]:
        row = tuple(int(x) for x in g.elems[idx])
        key = mat_charpoly(g.field, row, g.d).coeffs
        buckets.setdefault(key, []).append(int(idx))
    return buckets


# --- torus normalizer regular-action check -----------------------------------


def conjugation0_check(d: int, q: int, budget: int = DEFAULT_BUDGET) -> dict:
    """Permutation matrices act regularly on the diagonal conjugates of a
    regular diagonal element (H = GL_d(q), M = diagonal torus)."""
    if q - 1 < d:
        raise OracleConfigError("need q - 1 >= d distinct diagonal entries")
    field = field_for(q, 1)
    entries = list(range(1, d + 1))  # d distinct nonzero encodings
    t = [0] * (d * d)
    for i, a in enumerate(entries):
        t[i * d + i] = a
    t = tuple(t)
    # all diagonal torus members conjugate to t (same entry multiset)
    conjugates = set()
    for perm in itertools.permutations(entries):
        m = [0] * (d * d)
        for i, a in enumerate(perm):
            m[i * d + i] = a
        conjugates.add(tuple(m))
    perms = []
    for perm in itertools.permutations(range(d)):
        m = [0] * (d * d)
        for i, j in enumerate(perm):
            m[i * d + j] = 1
        perms.append(tuple(m))
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
    from . import semisimple as ss

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
        rep_orders = []
        for idx in reps:
            s = tuple(int(x) for x in g.elems[idx])
            brute_order = brute_centralizer(g, s)
            rep_orders.append(brute_order)
            record("centralizer_formula", brute_order == formula_order)
            record("realness_formula", brute_is_real(g, s) == formula_real)
            proj_order = projective_centralizer(g, s)
            record("projective_centralizer_formula", proj_order == formula_proj_order)
            record(
                "projective_realness", projective_is_real(g, s) == formula_proj_real
            )
            record("projective_centralizer_comparison", proj_order <= brute_order)
        # the conjugacy class of the representative fills its charpoly
        # bucket exactly: |class| = |G|/|C| matches the bucket size (reps[0]
        # is indices[0], so its centralizer is already known)
        record(
            "class_equals_charpoly_bucket", g.order // rep_orders[0] == len(indices)
        )

    for l in range(1, d // 2 + 1):
        inv = ss.involution_with_blocks(d, l, q, epsilon)
        m = tuple(x for row in inv.rows for x in row)
        record(
            "involution_centralizer",
            brute_centralizer(g, m) == inv.centralizer_order,
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
