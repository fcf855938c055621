"""Characteristic-2 field tower GF(2) <= GF(2^f) <= GF(2^{2f}).

Elements are plain integers whose binary digits are the GF(2)-coordinates
in the polynomial basis (little-endian: bit i is the coefficient of x^i).
Zero and one are therefore encoded as 0 and 1.  Addition is XOR.

Every field is defined by the Conway polynomial of its degree, so element
encodings are bit-exact across runs.  The table below is stored, not
computed: each entry is the lexicographically least monic primitive
polynomial whose roots are norm-compatible with the Conway polynomials of
all proper subfield degrees.  tests/gf2k_reference.py re-derives all 20
entries from that definition, and the test suite checks each against the
table.

There is no element type: a FieldSpec and an int encoding are the whole
representation of a field element.

Discrete log/exp tables (Zech-style, K. Huber, IEEE Trans. IT 36, 1990)
exist for every degree up to MAX_DEGREE, built on first use by one
plain-Python pass and shared by every field of the same degree; the torus
arithmetic of ``autos`` runs on them at every degree.  ``FieldSpec``
multiplies through them only up to TABLE_MAX_DEGREE; above it, it
multiplies through one shared 8x8-bit carry-less product table and
per-degree tables for the GF(2)-linear reduction and squaring, and
inverts by the extended Euclid algorithm.
The bit-serial shift-and-xor reference that every table is tested against
lives in tests/gf2k_reference.py.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache

# Conway polynomials over GF(2) as bitmasks, keyed by degree.
CONWAY_POLY_2 = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1011011,
    7: 0b10000011,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10001101111,
    11: 0b100000000101,
    12: 0b1000011101011,
    13: 0b10000000011011,
    14: 0b100000010101001,
    15: 0b1000000000110101,
    16: 0b10000000000101101,
    17: 0b100000000000001001,
    18: 0b1000001010000000011,
    19: 0b10000000000000100111,
    20: 0b100000000011011110011,
}

MAX_DEGREE = 20

# Largest degree where FieldSpec multiplies through the log/exp tables.  At
# 16 the two arrays take 384 KB; at 20 they measured +8.1 MB of peak RSS,
# about 26% of the poly workload's 30.5 MB, so at degrees 17..20 FieldSpec
# multiplies through _wide_tables instead: a 128 KB product table shared by
# every degree, plus 14 KB per degree.
TABLE_MAX_DEGREE = 16


class FieldError(ValueError):
    """Raised for unsupported fields or zero division."""


@dataclass(frozen=True)
class FieldSpec:
    """The field GF(2^{f*delta}) in its fixed Conway-polynomial encoding.

    delta distinguishes the role of the field in the tower: delta=1 is the
    ground field GF(q) with q = 2^f, delta=2 the quadratic extension
    GF(q^2) used by the unitary groups.
    """

    f: int
    delta: int

    def __post_init__(self):
        if self.delta not in (1, 2):
            raise FieldError(f"delta must be 1 or 2, got {self.delta}")
        if not 1 <= self.f * self.delta <= MAX_DEGREE:
            raise FieldError(
                f"field degree {self.f}*{self.delta} outside supported range "
                f"1..{MAX_DEGREE}"
            )

    @cached_property
    def degree(self) -> int:
        return self.f * self.delta

    @property
    def q(self) -> int:
        """The 'q' of the tower: 2^f (not the field size when delta=2)."""
        return 1 << self.f

    @cached_property
    def size(self) -> int:
        return 1 << self.degree

    @cached_property
    def defining_poly(self) -> int:
        return CONWAY_POLY_2[self.degree]

    def descriptor(self) -> str:
        return f"GF(2^{self.degree})/conway"

    # --- raw arithmetic on integer encodings ---------------------------

    @cached_property
    def _tables(self):
        """(log, exp) of log_exp_tables, or None above TABLE_MAX_DEGREE."""
        if self.degree > TABLE_MAX_DEGREE:
            return None
        return log_exp_tables(self.degree)

    @cached_property
    def _wide(self):
        return _wide_tables(self.degree)

    def mul(self, a: int, b: int) -> int:
        tables = self._tables
        if tables is not None:
            if a and b:
                log, exp = tables
                return exp[log[a] + log[b]]
            return 0
        # the carry-less product, byte by byte, then its top n - 1 bits reduced
        n, mask, rows, r0, r1 = self._wide[:5]
        t0, t1, t2 = rows[a & 255], rows[a >> 8 & 255], rows[a >> 16]
        b1, b2, b = b >> 8 & 255, b >> 16, b & 255
        p = t0[b] ^ (t0[b1] ^ t1[b]) << 8 ^ (t0[b2] ^ t1[b1] ^ t2[b]) << 16
        p ^= (t1[b2] ^ t2[b1]) << 24 ^ t2[b2] << 32
        h = p >> n
        return p & mask ^ r0[h & 1023] ^ r1[h >> 10]

    def sqr(self, a: int) -> int:
        if self._tables is not None:
            return self.mul(a, a)
        s0, s1 = self._wide[5:]
        return s0[a & 1023] ^ s1[a >> 10]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise FieldError("zero has no negative powers")
            return 0
        tables = self._tables
        if tables is not None:
            log, exp = tables
            return exp[log[a] * e % (len(log) - 1)]
        e %= self.size - 1  # square-and-multiply
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            e >>= 1
            a = self.sqr(a)
        return r

    def inv(self, a: int) -> int:
        if a == 0:
            raise FieldError("zero is not invertible")
        tables = self._tables
        if tables is None:
            return self._inv_euclid(a)
        log, exp = tables
        return exp[len(log) - 1 - log[a]]

    def _inv_euclid(self, a: int) -> int:
        """1/a by the extended Euclid algorithm on GF(2)[x] bitmasks
        (Hankerson, Menezes, Vanstone, Guide to ECC, Alg. 2.48); the loop
        keeps g1*a = u and g2*a = v modulo the defining polynomial.  That
        polynomial is a stored Conway polynomial, primitive and so
        irreducible, so every 0 < a < size is a unit and u ends at 1."""
        u, v, g1, g2 = a, self.defining_poly, 1, 0
        while u > 1:
            j = u.bit_length() - v.bit_length()
            if j < 0:
                u, v, g1, g2, j = v, u, g2, g1, -j
            u ^= v << j
            g1 ^= g2 << j
        return g1


@lru_cache(maxsize=None)
def log_exp_tables(n: int) -> tuple[array, array]:
    """Discrete log and exp tables of GF(2^n) to the base x; log[0] is a
    placeholder 0.  One pass, x^(i+1) = x^i * x, writes both arrays.

    Up to TABLE_MAX_DEGREE the arrays are unsigned 16-bit and exp is
    doubled, exp[i] = x^i for 0 <= i < 2(2^n - 1), so FieldSpec's
    exp[log a + log b] needs no reduction.  Above it FieldSpec multiplies
    through _wide_tables instead; the arrays are 32-bit and exp stops at
    x^(2^n - 2), which saves 4 MB at degree 20, so callers reduce logs mod
    2^n - 1.
    """
    if not 1 <= n <= MAX_DEGREE:
        raise FieldError(f"no log/exp tables for degree {n}")
    mod, top = CONWAY_POLY_2[n], (1 << n) - 1
    zero = array("H" if n <= TABLE_MAX_DEGREE else "I", [0])
    log, exp = zero * (top + 1), zero * top
    a = 1
    for i in range(top):
        exp[i] = a
        log[a] = i
        a <<= 1  # times x, then reduce
        if a >> n:
            a ^= mod
    if n <= TABLE_MAX_DEGREE:
        exp *= 2
    return log, exp


@lru_cache(maxsize=None)
def _wide_tables(n: int) -> tuple:
    """(n, 2^n - 1, _clmul_rows(), r0, r1, s0, s1) for n > TABLE_MAX_DEGREE.

    With h = p >> n for a carry-less product p, p reduced is
    (p & 2^n - 1) ^ r0[h & 1023] ^ r1[h >> 10], r0 and r1 mapping bit i to
    x^(n + i) and x^(n + 10 + i); a^2 = s0[a & 1023] ^ s1[a >> 10], s0 and
    s1 mapping bit i to x^2i and x^(20 + 2i)."""
    mod = CONWAY_POLY_2[n]
    xs = [1]  # x^i mod the Conway polynomial for i <= 2n - 2
    for _ in range(2 * n - 2):
        c = xs[-1] << 1
        xs.append(c ^ mod if c >> n else c)
    images = (xs[n : n + 10], xs[n + 10 :], xs[:20:2], xs[20::2])  # r0, r1, s0, s1
    spans = (array("I", xor_span([0], i)) for i in images)
    return (n, (1 << n) - 1, _clmul_rows(), *spans)


def xor_span(out: list[int], images: list[int]) -> list[int]:
    """out XORed with every subset of images, one XOR per entry: from [0],
    the GF(2)-linear map sending bit j to images[j]."""
    for image in images:
        out += [v ^ image for v in out]
    return out


@lru_cache(maxsize=None)
def _clmul_rows() -> list[array]:
    """The 8x8-bit carry-less product table, 65,536 uint16 entries, as 256
    rows: rows[a][b] = a * b in GF(2)[x]."""
    # a row packed in one int, 16 bits a lane: row a is GF(2)-linear in a,
    # and bit j of a maps to row 1 << j, the packed row 0..255 shifted by j
    one = int.from_bytes(array("H", range(256)), sys.byteorder)
    rows = xor_span([0], [one << j for j in range(8)])
    return [array("H", row.to_bytes(512, sys.byteorder)) for row in rows]


@lru_cache(maxsize=None)
def make_field(f: int, delta: int = 1) -> FieldSpec:
    """Canonical FieldSpec for GF(2^{f*delta}); deterministic by construction."""
    return FieldSpec(f, delta)


def field_for(q: int, epsilon: int) -> FieldSpec:
    """The field GF(q^delta) of GL_d(q) (epsilon = 1) or GU_d(q) (epsilon = -1).

    The one check of (epsilon, q) for every layer: raises FieldError when
    epsilon is not +1 or -1, when q is not a power of 2, or when the field
    degree is out of range.
    """
    if epsilon not in (1, -1):
        raise FieldError(f"epsilon must be +1 or -1, got {epsilon}")
    if q < 2 or q & (q - 1):
        raise FieldError(f"q must be a power of 2, got {q}")
    return make_field(q.bit_length() - 1, 2 if epsilon == -1 else 1)


@lru_cache(maxsize=None)
def central_scalars(field: FieldSpec, n: int) -> tuple[int, ...]:
    """The order-n subgroup of the multiplicative group, as the n powers
    1, r, r^2, ... of r = x^((size-1)/n); with n = q - epsilon this is the
    centre of GL_d(q) or GU_d(q).  x is primitive for every Conway
    polynomial (in GF(2) it is 1, the only nonzero element)."""
    if (field.size - 1) % n:
        raise FieldError(f"no subgroup of order {n} in {field}")
    root = field.pow(2 if field.degree > 1 else 1, (field.size - 1) // n)
    out, acc = [], 1
    for _ in range(n):
        out.append(acc)
        acc = field.mul(acc, root)
    return tuple(out)
