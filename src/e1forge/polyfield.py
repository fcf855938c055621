"""Monic polynomial algebra over GF(q^delta).

Polynomials are monic throughout: a MonicPoly stores the non-leading
coefficients (constant term first, integer encodings) and the leading 1 is
implicit.  Degree 0 is the constant polynomial 1.

The two dualities on characteristic polynomials live here: star (roots
replaced by their inverses) and dagger (roots replaced by their -q-th
powers, delta=2 fields only), together with complete factorization into
irreducibles, the monic irreducibles of each degree (a sieve on integer
codes of coefficient tuples), and the enumeration of real and unitary
charpolys and of the semisimple class census.

Division and the dualities run on the field's discrete-log tables where
FieldSpec multiplies through them (up to GF(2^16)); above, they call
FieldSpec per coefficient, and never build the 32-bit tables.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from functools import lru_cache

from .gf2k import FieldSpec, central_scalars, make_field, xor_span

ENUM_BUDGET = 10**7
SPLIT_DRAWS = 64  # each equal-degree draw splits with probability >= 1/2


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
    """Quotient and remainder of a by b (trimmed, any nonzero lead).  Each
    step pops the top term of a, which the step cancels by construction.
    On log tables the divisor's logs are taken once and each quotient
    digit's log once per step; GF(2^17..20) calls FieldSpec instead."""
    a = _trim(list(a))
    db = len(b) - 1
    q = [0] * max(len(a) - db, 0)
    tables = fld._tables
    if tables is None:
        inv_lb = 1 if b[-1] == 1 else fld.inv(b[-1])
        low = [(i, bi) for i, bi in enumerate(b[:-1]) if bi]
        for shift in reversed(range(len(q))):
            top = a.pop()
            if top:
                coef = top if inv_lb == 1 else fld.mul(top, inv_lb)
                q[shift] = coef
                for i, bi in low:
                    a[shift + i] ^= fld.mul(coef, bi)
        return q, _trim(a)
    log, exp = tables
    order, lb = len(log) - 1, log[b[-1]]
    low = [(i, log[bi]) for i, bi in enumerate(b[:-1]) if bi]
    for shift in reversed(range(len(q))):
        top = a.pop()
        if top:
            lc = (log[top] - lb) % order
            q[shift] = exp[lc]
            for i, l in low:
                a[shift + i] ^= exp[lc + l]
    return q, _trim(a)


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
    return _reversed_dual(p, 1)


def poly_dagger(p: MonicPoly) -> MonicPoly:
    """Monic polynomial whose roots are the -q-th powers of p's roots.

    The star of the coefficient-wise q-th-power twist; only defined over
    the delta=2 field GF(q^2).
    """
    if p.field.delta != 2:
        raise PolyError("dagger requires a delta=2 field")
    return _reversed_dual(p, p.field.q)


def _reversed_dual(p: MonicPoly, e: int) -> MonicPoly:
    """The monic polynomial whose coefficient i is (c_(d-i) / c_0)^e, c_d = 1:
    star for e = 1, dagger for e = q.  On log tables each coefficient is one
    lookup, exp[e (log c - log c_0) mod (Q - 1)]; GF(2^17..20) calls
    FieldSpec's inv, mul and pow instead."""
    if p.degree == 0:
        return p
    fld, c0 = p.field, p.coeffs[0]
    if c0 == 0:
        name = "star" if e == 1 else "dagger"
        raise PolyError(f"{name} undefined: zero constant term")
    rev = (1, *p.coeffs[:0:-1])
    tables = fld._tables
    if tables is None:
        inv0 = fld.inv(c0)
        coeffs = [fld.mul(c, inv0) for c in rev]
        if e != 1:
            coeffs = [fld.pow(c, e) for c in coeffs]
    else:
        log, exp = tables
        order, l0 = len(log) - 1, log[c0]
        coeffs = [exp[e * (log[c] - l0) % order] if c else 0 for c in rev]
    return MonicPoly(fld, tuple(coeffs))


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
        """The product, multiplied out on coefficient lists: m products for p^m."""
        fld, out = self.base_field, [1]
        for p, m in self.factors:
            full = [*p.coeffs, 1]
            for _ in range(m):
                out = _polmul(fld, out, full)
        return MonicPoly(fld, tuple(out[:-1]))


def _factor_key(p: MonicPoly):
    return (p.degree, p.coeffs)


def _make_factorization(field: FieldSpec, counter: dict) -> Factorization:
    items = sorted(counter.items(), key=lambda kv: _factor_key(kv[0]))
    return Factorization(field, tuple((p, m) for p, m in items))


def _rows_mod(fld: FieldSpec, rows, f: list[int]):
    """The Q-power matrix mod a divisor f of its modulus (None stays None)."""
    return rows and [_polmod(fld, r, f) for r in rows[: len(f) - 1]]


def _frobenius(fld: FieldSpec, h: list[int], rows: list[list[int]]) -> list[int]:
    """h^Q mod f by the Q-power matrix rows[i] = x^(iQ) mod f, i < deg f:
    the coefficients are fixed by the Q-power map, so h^Q = sum h_i x^(iQ)."""
    out = [0] * len(rows)
    for hi, row in zip(h, rows):
        if hi:
            for j, r in enumerate(row):
                if r:
                    out[j] ^= fld.mul(hi, r)
    return _trim(out)


def _equal_degree_split(fld: FieldSpec, f: list[int], d: int, rows, rng) -> list:
    """Split a squarefree product of irreducibles all of degree d (char 2)
    by gcd(T(a), f) for random a and the trace T(a) = a + a^2 + ... +
    a^(2^(kd-1)) mod f (Cantor-Zassenhaus, Math. Comp. 36, 1981), Q = 2^k:
    T = b + b^2 + ... + b^(2^(k-1)) for b = a + a^Q + ... + a^(Q^(d-1)),
    which takes d - 1 steps with the Q-power matrix rows and k - 1 squarings.
    Raises PolyError after SPLIT_DRAWS draws that all fail to split."""
    if len(f) - 1 == d:
        return [f]
    for _ in range(SPLIT_DRAWS):
        a = [rng.randrange(fld.size) for _ in range(len(f) - 1)]
        if not _trim(list(a)):
            continue
        s = b = a
        for _ in range(d - 1):
            s = _frobenius(fld, s, rows)
            b = _poladd(b, s)
        s = t = b
        for _ in range(fld.degree - 1):
            s = _polsqrmod(fld, s, f)
            t = _poladd(t, s)
        g = _polgcd(fld, t, f)
        if 0 < len(g) - 1 < len(f) - 1:
            q, r = _poldivmod(fld, f, g)
            assert not r
            return _equal_degree_split(
                fld, g, d, _rows_mod(fld, rows, g), rng
            ) + _equal_degree_split(fld, q, d, _rows_mod(fld, rows, q), rng)
    raise PolyError(
        f"no split of a degree-{len(f) - 1} product of degree-{d} irreducibles "
        f"in {SPLIT_DRAWS} draws"
    )


def _factor_squarefree(fld: FieldSpec, f: list[int], rng) -> list[list[int]]:
    """Distinct-degree then equal-degree factorization of squarefree f.

    Step d splits off gcd(h - x, f), h = x^(Q^d) mod f.  Step 1 squares x k
    times; later steps apply the Q-power map as the matrix of x^(iQ) mod f
    (von zur Gathen and Shoup, Comput. Complexity 2, 1992), built once from
    x^Q and reduced mod f whenever a split shrinks f.
    """
    out, x = [], [0, 1]
    h, rows, d = x, None, 0
    while len(f) - 1 > 0:
        d += 1
        if 2 * d > len(f) - 1:
            out.append(f)
            break
        if d == 1:
            for _ in range(fld.degree):  # h <- x^Q
                h = _polsqrmod(fld, h, f)
        else:
            if rows is None:  # rows[i] = x^(iQ) mod f, i < deg f
                rows = [[1], h]
                while len(rows) < len(f) - 1:
                    rows.append(_polmod(fld, _polmul(fld, rows[-1], h), f))
            h = _frobenius(fld, h, rows)
        g = _polgcd(fld, _poladd(h, x), f)
        if len(g) - 1 > 0:
            out.extend(_equal_degree_split(fld, g, d, _rows_mod(fld, rows, g), rng))
            f, r = _poldivmod(fld, f, g)
            assert not r
            h = _polmod(fld, h, f)
            rows = _rows_mod(fld, rows, f)
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


@lru_cache(maxsize=None)
def irreducibles(field: FieldSpec, degree: int) -> tuple[MonicPoly, ...]:
    """All monic irreducibles of the exact degree, in canonical order.

    A degree sieve on codes: the monic c_0..c_(n-1) has the code
    sum c_i Q^(n-1-i), so code order is _factor_key order.  Every reducible
    monic of degree n is p*r with p irreducible of degree k <= n/2 and r
    monic of degree n - k.  r -> p*r is GF(2)-affine on the bits of r's low
    coefficients, so the codes of p's multiples are code(p x^(n-k)) XOR
    each subset of the f (n - k) images code(2^b p x^j), f the field
    degree.  A bytearray(Q^n) keeps one flag per code, cleared by every
    product; the codes left set are the irreducibles.  Products come in
    blocks of at most 2^12 codes, so the flags are the only allocation of
    size Q^n.
    """
    if degree < 1:
        return ()
    f, n = field.degree, degree
    prime = bytearray(b"\x01") * field.size**n
    for k in range(1, n // 2 + 1):
        for p in irreducibles(field, k):
            # code(2^b p), coefficient i at Q^(n-1-i); >> f j multiplies by x^j
            full = (*p.coeffs, 1)
            rows = [
                _code(f, (field.mul(1 << b, c) for c in full)) << f * (n - k - 1)
                for b in range(f)
            ]
            images = [row >> f * j for j in range(n - k) for row in rows]
            # code(p x^(n-k)) is p's own k-digit code: its x^n term is implicit
            offsets = xor_span([_code(f, p.coeffs)], images[12:])
            block = xor_span([0], images[:12])
            for offset in offsets:
                for c in block:
                    prime[c ^ offset] = 0
    # product() runs through the coefficient tuples in code order
    codes = itertools.product(range(field.size), repeat=n)
    return tuple(MonicPoly(field, c) for c in itertools.compress(codes, prime))


def _code(f: int, digits) -> int:
    """sum c_i 2^(f (len - 1 - i)): the first digit is the most significant."""
    out = 0
    for c in digits:
        out = out << f | c
    return out


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

    Yields every polynomial satisfying the constraints (real: Xi = Xi-star;
    unitary: Xi = Xi-dagger, over a delta=2 field) exactly once, and
    filters nothing.  Every stream is the census of orbit multisets
    (`_orbits`, then `_products`), held in memory: O(classes).  Only the
    real unitary orbits are factored, once each; no class is.  Real
    streams come in palindrome order, sorted on (c_{floor(d/2)}, ...,
    c_1), with c_i in GF(q) when also unitary; the others on (c_{d-1},
    ..., c_0).  `budget` caps the size of the parametrized space, not Q^d.
    """
    if d < 1:
        raise PolyError("degree must be >= 1")
    if unitary and field.delta != 2:
        raise PolyError("dagger requires a delta=2 field")
    Q, q = field.size, field.q
    if real:
        lead, base, n = 1, (q if unitary else Q), d // 2
    elif unitary:
        lead, base, n = q + 1, q, d - 1
    else:
        lead, base, n = Q - 1, Q, d - 1
    # base >= 2, so n >= budget.bit_length() refuses without building the
    # power; the space is named as a power, as it may pass str()'s limit
    if n >= budget.bit_length() or lead * base**n > budget:
        space = f"{base}^{n}" if lead == 1 else f"{lead}*{base}^{n}"
        raise PolyError(f"enumeration space {space} exceeds budget {budget}")
    identity = (MonicPoly(field, (1,)) ** d).coeffs if exclude_identity else None
    orbits = _orbits(field, d, real, unitary)
    classes = _products(field, orbits, d)
    order = (lambda key: key[(d - 1) // 2 : d - 1]) if real else None
    for key in sorted(classes, key=order):
        if key[::-1] != identity:
            factors = [(p, m) for i, m in classes[key] for p in orbits[i][1]]
            factors.sort(key=lambda pm: _factor_key(pm[0]))
            yield Factorization(field, tuple(factors))


def _orbits(field: FieldSpec, d: int, real: bool, unitary: bool) -> list:
    """Each orbit of degree <= d as (its product with the leading 1, lowest
    degree first; its irreducible factors), by degree, as `_products` needs.

    Each is a fixed image of `irreducibles`.  GL: each irreducible with
    c_0 != 0.  GU and real: x + 1, each pair {p, p'} with p != p' from
    irreducibles(field, j), p' the dagger (GU) or the star (real), and each
    p = p' from `_fixed_orbit`:
    - real, degree 2j: x^j g(x + 1/x) for each g of degree j with
      Tr(g_1/g_0) = 1 (Meyn, AAECC 1, 1990); a trace of 0 gives a pair;
    - GU, odd degree k: (x+1)^k g((c^q x + c)/(x+1)), c = x, for each g of
      degree k over GF(q), lifted to GF(q^2) (a Cayley map).
    Real unitary: the real orbits of GF(q), lifted by x^L -> x^(L(q+1)).
    """
    if not (real or unitary):
        irr = (p for k in range(1, d + 1) for p in irreducibles(field, k))
        return [([*p.coeffs, 1], (p,)) for p in irr if p.coeffs[0]]
    if unitary:
        sub, q = make_field(field.f), field.q
        lift = dict(zip(central_scalars(sub, q - 1), central_scalars(field, q - 1)))
        lift[0] = 0
        cayley = [2, field.pow(2, q)]  # c + c^q x, c = x
    if real and unitary:  # each factored once over GF(q^2)
        orbits = []
        for full, _ in _orbits(sub, d, True, False):
            p = MonicPoly(field, tuple(lift[c] for c in full[:-1]))
            orbits.append(([*p.coeffs, 1], tuple(f for f, _ in poly_factor(p).factors)))
        return orbits
    orbits = [([1, 1], (x_plus(field, 1),))]
    for n in range(1, d + 1):
        if n % 2 and unitary:
            for g in irreducibles(sub, n):
                lifted = [lift[c] for c in (*g.coeffs, 1)]
                orbits.append(_fixed_orbit(field, lifted, cayley, [1, 1]))
        elif n % 2 == 0:
            for p in irreducibles(field, n // 2):
                g = [*p.coeffs, 1]
                if not g[0]:
                    continue
                dual = poly_dagger(p) if unitary else poly_star(p)
                if p.coeffs < dual.coeffs:  # once per pair; never p = p'
                    orbits.append((_polmul(field, g, [*dual.coeffs, 1]), (p, dual)))
                if real and _trace(field, field.mul(g[1], field.inv(g[0]))):
                    orbits.append(_fixed_orbit(field, g, [1, 0, 1], [0, 1]))
    return orbits


def _fixed_orbit(field: FieldSpec, g: list[int], a: list[int], b: list[int]):
    """The orbit of the irreducible sum g_i a^i b^(k-i), k = deg g, made
    monic: by Horner from g_k, with one more factor of b per step."""
    out, b_power = [g[-1]], [1]
    for gi in g[-2::-1]:
        b_power = _polmul(field, b_power, b)
        out = _poladd(_polmul(field, out, a), [field.mul(gi, c) for c in b_power])
    inv = field.inv(out[-1])
    out = [field.mul(c, inv) for c in out]
    return out, (MonicPoly(field, tuple(out[:-1])),)


def _trace(field: FieldSpec, a: int) -> int:
    """Tr(a) = a + a^2 + ... + a^(2^(n-1)) in GF(2^n): 0 or 1."""
    out = a
    for _ in range(field.degree - 1):
        a = field.sqr(a)
        out ^= a
    return out


def _products(field: FieldSpec, orbits: list, n: int) -> dict:
    """{key: ((orbit index, multiplicity), ...)} for every multiset of
    orbits with total degree n, key = (c_{n-1}, ..., c_0): O(classes).

    The recursion multiplies each product once into its parent's, so no
    class is expanded from scratch.
    """
    out = {}

    def extend(start: int, parent: list, left: int, chosen: tuple):
        for i in range(start, len(orbits)):
            full = orbits[i][0]
            k = len(full) - 1
            if k > left:
                break
            poly = parent
            for m in range(1, left // k + 1):
                poly = _polmul(field, poly, full) if poly != [1] else full
                if m * k == left:
                    out[tuple(poly[-2::-1])] = (*chosen, (i, m))
                else:
                    extend(i + 1, poly, left - m * k, (*chosen, (i, m)))

    extend(0, [1], n, ())
    return out


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
