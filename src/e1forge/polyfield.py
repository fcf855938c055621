"""Monic polynomial algebra over GF(q^delta).

Polynomials are monic throughout: a MonicPoly stores the non-leading
coefficients (constant term first, integer encodings) and the leading 1 is
implicit.  Degree 0 is the constant polynomial 1.

The two dualities on characteristic polynomials live here: star (roots
replaced by their inverses) and dagger (roots replaced by their -q-th
powers, delta=2 fields only), together with complete factorization into
irreducibles and the realness/unitarity predicates built on them.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from functools import lru_cache

from .gf2k import FieldSpec

ENUM_BUDGET = 10**7


class PolyError(ValueError):
    """Raised for malformed polynomials or unsupported operations."""


@dataclass(frozen=True)
class MonicPoly:
    """Monic polynomial; coeffs are the encodings of c_0..c_{d-1}."""

    field: FieldSpec
    coeffs: tuple[int, ...]

    def __post_init__(self):
        for c in self.coeffs:
            if not 0 <= c < self.field.size:
                raise PolyError(f"coefficient encoding {c} out of range")

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def constant_term(self) -> int:
        if self.degree == 0:
            return 1
        return self.coeffs[0]

    def evaluate(self, x: int) -> int:
        fld = self.field
        r = 1  # leading coefficient
        for c in reversed(self.coeffs):
            r = fld.mul(r, x) ^ c
        return r

    def __mul__(self, other: "MonicPoly") -> "MonicPoly":
        if self.field != other.field:
            raise PolyError("field mismatch")
        a = list(self.coeffs) + [1]
        b = list(other.coeffs) + [1]
        prod = _polmul(self.field, a, b)
        return MonicPoly(self.field, tuple(prod[:-1]))

    def __pow__(self, n: int) -> "MonicPoly":
        r = MonicPoly(self.field, ())
        for _ in range(n):
            r = r * self
        return r

    def __str__(self) -> str:
        return format_poly(self)


def x_plus(field: FieldSpec, a: int) -> MonicPoly:
    """The linear polynomial x + a (root a, characteristic 2)."""
    return MonicPoly(field, (a,))


# --- dense polynomial helpers (lists, lowest degree first) --------------


def _trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poladd(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] ^= c
    return _trim(out)


def _polmul(fld: FieldSpec, a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] ^= fld.mul(ai, bj)
    return out


def _poldivmod(fld: FieldSpec, a: list[int], b: list[int]):
    a = _trim(list(a))
    db, lb = len(b) - 1, b[-1]
    inv_lb = 1 if lb == 1 else fld.inv(lb)
    low = b[:-1]  # the top term of a cancels by construction
    q = [0] * max(len(a) - db, 0)
    while len(a) > db:
        coef = a.pop() if inv_lb == 1 else fld.mul(a.pop(), inv_lb)
        shift = len(a) - db
        q[shift] = coef
        for i, bi in enumerate(low):
            if bi:
                a[shift + i] ^= fld.mul(coef, bi)
        _trim(a)
    return _trim(q), a


def _polmod(fld: FieldSpec, a: list[int], m: list[int]) -> list[int]:
    return _poldivmod(fld, a, m)[1]


def _polgcd(fld: FieldSpec, a: list[int], b: list[int]) -> list[int]:
    a, b = list(a), list(b)
    while b:
        a, b = b, _polmod(fld, a, b)
    if a and a[-1] != 1:
        inv = fld.inv(a[-1])
        a = [fld.mul(c, inv) for c in a]
    return a


def _polsqrmod(fld: FieldSpec, a: list[int], m: list[int]) -> list[int]:
    # characteristic 2: the cross terms cancel, (sum a_i x^i)^2 = sum a_i^2 x^2i
    sq = [0] * (2 * len(a) - 1)
    sq[::2] = [fld.sqr(c) for c in a]
    return _polmod(fld, sq, m)


def _derivative(fld: FieldSpec, a: list[int]) -> list[int]:
    # characteristic 2: even-degree terms vanish
    return _trim([a[i] if i % 2 == 1 else 0 for i in range(1, len(a))])


def _sqrt_poly(fld: FieldSpec, a: list[int]) -> list[int]:
    # a has only even-degree terms; coefficient square roots are unique
    half = fld.size >> 1  # 2^{degree-1}
    return [fld.pow(a[2 * i], half) for i in range((len(a) + 1) // 2)]


# --- star and dagger -----------------------------------------------------


def poly_star(p: MonicPoly) -> MonicPoly:
    """Monic polynomial whose roots are the inverses of p's roots."""
    if p.degree == 0:
        return p
    c0 = p.constant_term()
    if c0 == 0:
        raise PolyError("star undefined: zero constant term")
    fld = p.field
    inv0 = fld.inv(c0)
    full = list(p.coeffs) + [1]
    rev = [fld.mul(c, inv0) for c in reversed(full)]
    return MonicPoly(fld, tuple(rev[:-1]))


def poly_dagger(p: MonicPoly) -> MonicPoly:
    """Monic polynomial whose roots are the -q-th powers of p's roots.

    Computed as the star of the coefficient-wise q-th-power twist; only
    defined over the delta=2 field GF(q^2).
    """
    fld = p.field
    if fld.delta != 2:
        raise PolyError("dagger requires a delta=2 field")
    if p.degree and p.constant_term() == 0:
        raise PolyError("dagger undefined: zero constant term")
    twisted = MonicPoly(fld, tuple(fld.pow(c, fld.q) for c in p.coeffs))
    return poly_star(twisted)


def is_real_charpoly(p: MonicPoly) -> bool:
    """True iff p equals its star dual."""
    return poly_star(p) == p


def is_unitary_compatible(p: MonicPoly) -> bool:
    """True iff p equals its dagger dual (necessary for GU membership)."""
    return poly_dagger(p) == p


# --- factorization -------------------------------------------------------


@dataclass(frozen=True)
class Factorization:
    """Multiset of (irreducible monic factor, multiplicity), canonically sorted."""

    base_field: FieldSpec
    factors: tuple[tuple[MonicPoly, int], ...]

    @property
    def degree(self) -> int:
        return sum(p.degree * m for p, m in self.factors)

    def expand(self) -> MonicPoly:
        out = MonicPoly(self.base_field, ())
        for p, m in self.factors:
            out = out * (p**m)
        return out

    def multiplicity_of(self, p: MonicPoly) -> int:
        for fac, m in self.factors:
            if fac == p:
                return m
        return 0


def _factor_key(p: MonicPoly):
    return (p.degree, p.coeffs)


def _make_factorization(field: FieldSpec, counter: dict) -> Factorization:
    items = sorted(counter.items(), key=lambda kv: _factor_key(kv[0]))
    return Factorization(field, tuple((p, m) for p, m in items))


def _equal_degree_split(fld: FieldSpec, f: list[int], d: int, rng) -> list[list[int]]:
    """Split a squarefree product of irreducibles all of degree d (char 2)."""
    if len(f) - 1 == d:
        return [f]
    k = fld.degree
    while True:
        a = [rng.randrange(fld.size) for _ in range(len(f) - 1)]
        if not _trim(list(a)):
            continue
        # trace map T(a) = a + a^2 + ... + a^{2^{kd-1}} mod f
        t = list(a)
        s = list(a)
        for _ in range(k * d - 1):
            s = _polsqrmod(fld, s, f)
            t = _poladd(t, s)
        g = _polgcd(fld, t, f)
        if 0 < len(g) - 1 < len(f) - 1:
            q, r = _poldivmod(fld, f, g)
            assert not r
            return _equal_degree_split(fld, g, d, rng) + _equal_degree_split(
                fld, q, d, rng
            )


def _factor_squarefree(fld: FieldSpec, f: list[int], rng) -> list[list[int]]:
    """Distinct-degree then equal-degree factorization of squarefree f."""
    out = []
    x = [0, 1]
    h = list(x)
    d = 0
    while len(f) - 1 > 0:
        d += 1
        if 2 * d > len(f) - 1:
            out.append(f)
            break
        for _ in range(fld.degree):  # h <- h^Q, Q = 2^degree
            h = _polsqrmod(fld, h, f)
        diff = _poladd(h, x)
        g = _polgcd(fld, diff, f)
        if len(g) - 1 > 0:
            out.extend(_equal_degree_split(fld, g, d, rng))
            f, r = _poldivmod(fld, f, g)
            assert not r
            h = _polmod(fld, h, f)
    return out


def poly_factor(p: MonicPoly) -> Factorization:
    """Complete factorization into irreducibles, canonically ordered."""
    fld = p.field
    rng = random.Random(0xE1F0)
    counter: dict[MonicPoly, int] = {}

    def accumulate(f: list[int], mult: int):
        f = _trim(list(f))
        if len(f) - 1 <= 0:
            return
        df = _derivative(fld, f)
        if not df:
            accumulate(_sqrt_poly(fld, f), 2 * mult)
            return
        g = _polgcd(fld, f, df)
        sqf, r = _poldivmod(fld, f, g)
        assert not r
        for fac in _factor_squarefree(fld, sqf, rng):
            mono = MonicPoly(fld, tuple(fac[:-1]))
            counter[mono] = counter.get(mono, 0) + mult
        if len(g) - 1 > 0:
            accumulate(g, mult)

    accumulate(list(p.coeffs) + [1], 1)
    return _make_factorization(fld, counter)


def factor_roots_scan(p: MonicPoly) -> Factorization | None:
    """Root-scan cross-check path: only for tiny fields and degree <= 3."""
    fld = p.field
    if fld.size > 16 or p.degree > 3:
        return None
    counter: dict[MonicPoly, int] = {}
    work = list(p.coeffs) + [1]
    for a in fld.elements():
        while len(work) - 1 > 0 and MonicPoly(fld, tuple(work[:-1])).evaluate(a) == 0:
            work, r = _poldivmod(fld, work, [a, 1])
            assert not r
            lin = x_plus(fld, a)
            counter[lin] = counter.get(lin, 0) + 1
    if len(work) - 1 > 0:
        rest = MonicPoly(fld, tuple(work[:-1]))
        # rootless of degree 2 or 3 over a field is irreducible
        counter[rest] = counter.get(rest, 0) + 1
    return _make_factorization(fld, counter)


@lru_cache(maxsize=None)
def irreducibles(field: FieldSpec, degree: int) -> tuple[MonicPoly, ...]:
    """All monic irreducibles of the exact degree, in canonical order.

    A degree sieve: every reducible monic of degree n is p*r with p
    irreducible of degree k <= n/2 and r monic of degree n - k, so the
    polynomials no such product reaches are the irreducibles.
    """
    if degree < 1:
        return ()
    Q = field.size
    reducible = set()
    for k in range(1, degree // 2 + 1):
        for p in irreducibles(field, k):
            full = list(p.coeffs) + [1]
            for r in itertools.product(range(Q), repeat=degree - k):
                reducible.add(tuple(_polmul(field, full, list(r) + [1])[:-1]))
    # product() runs through the coefficient tuples in _factor_key order
    return tuple(
        MonicPoly(field, coeffs)
        for coeffs in itertools.product(range(Q), repeat=degree)
        if coeffs not in reducible
    )


# --- enumeration ---------------------------------------------------------


def enumerate_charpolys(
    d: int,
    field: FieldSpec,
    real: bool = False,
    unitary: bool = False,
    exclude_identity: bool = False,
    budget: int = ENUM_BUDGET,
):
    """Stream of Factorizations of monic degree-d polynomials, c_0 != 0.

    Yields every polynomial satisfying the constraints exactly once, in
    lexicographic order on the coefficient encodings (c_0 first).
    """
    if d < 1:
        raise PolyError("degree must be >= 1")
    if field.size**d > budget:
        raise PolyError(
            f"enumeration space {field.size}**{d} exceeds budget {budget}"
        )
    identity = MonicPoly(field, (1,)) ** d if exclude_identity else None
    for p in _raw_enumerate(d, field, real):
        if real and not is_real_charpoly(p):
            continue
        if unitary and not is_unitary_compatible(p):
            continue
        if exclude_identity and p == identity:
            continue
        yield poly_factor(p)


def _raw_enumerate(d: int, field: FieldSpec, real: bool):
    Q = field.size
    if real:
        # a real monic charpoly in characteristic 2 is palindromic with
        # constant term 1, so only c_1..c_{floor(d/2)} are free
        half = d // 2
        for enc in range(Q**half):
            cs = []
            e = enc
            for _ in range(half):
                cs.append(e % Q)
                e //= Q
            # mirror: c_i = c_{d-i}, and 1 <= min(i, d - i) <= half
            full = [1] + [cs[min(i, d - i) - 1] for i in range(1, d)]
            yield MonicPoly(field, tuple(full))
    else:
        for enc in range(Q ** (d - 1)):
            e = enc
            rest = []
            for _ in range(d - 1):
                rest.append(e % Q)
                e //= Q
            for c0 in range(1, Q):
                yield MonicPoly(field, tuple([c0] + rest))


# --- text format ---------------------------------------------------------

_POLY_RE = re.compile(r"^poly\(GF\(2\^(\d+)\)\)\[([0-9,\s]*)\]$")


def format_poly(p: MonicPoly) -> str:
    coeffs = ",".join(str(c) for c in list(p.coeffs) + [1])
    return f"poly(GF(2^{p.field.degree}))[{coeffs}]"


def parse_poly(text: str, field: FieldSpec) -> MonicPoly:
    m = _POLY_RE.match(text.strip())
    if not m:
        raise PolyError(f"cannot parse polynomial text: {text!r}")
    parts = [s.strip() for s in m.group(2).split(",") if s.strip()]
    try:
        degree, *coeffs = [int(s) for s in [m.group(1), *parts]]
    except ValueError:  # "1 2", or longer than Python's integer-string limit
        raise PolyError("malformed or over-long integer in polynomial text")
    if degree != field.degree:
        raise PolyError(
            f"polynomial field GF(2^{degree}) does not match GF(2^{field.degree})"
        )
    if not coeffs:
        raise PolyError("empty coefficient list")
    if coeffs[-1] != 1:
        raise PolyError("polynomial is not monic")
    return MonicPoly(field, tuple(coeffs[:-1]))
