"""Characteristic-2 field tower GF(2) <= GF(2^f) <= GF(2^{2f}).

Elements are plain integers whose binary digits are the GF(2)-coordinates
in the polynomial basis (little-endian: bit i is the coefficient of x^i).
Zero and one are therefore encoded as 0 and 1.  Addition is XOR.

Every field is defined by the Conway polynomial of its degree, so element
encodings are bit-exact across runs.  The table below was derived from the
defining property (lexicographically least monic primitive polynomial whose
roots are norm-compatible with the Conway polynomials of all proper
subfield degrees); ``compute_conway_poly`` re-derives any entry and is
exercised by the test suite.

There is no element type: a FieldSpec and an int encoding are the whole
representation of a field element.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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

    @property
    def degree(self) -> int:
        return self.f * self.delta

    @property
    def q(self) -> int:
        """The 'q' of the tower: 2^f (not the field size when delta=2)."""
        return 1 << self.f

    @property
    def size(self) -> int:
        return 1 << self.degree

    @property
    def defining_poly(self) -> int:
        return CONWAY_POLY_2[self.degree]

    def descriptor(self) -> str:
        return f"GF(2^{self.degree})/conway"

    # --- raw arithmetic on integer encodings ---------------------------

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        n = self.degree
        mod = self.defining_poly
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if (a >> n) & 1:
                a ^= mod
        return r

    def sqr(self, a: int) -> int:
        return self.mul(a, a)

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise FieldError("zero has no negative powers")
            return 0
        if e < 0:
            a = self.inv(a)
            e = -e
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            e >>= 1
            a = self.mul(a, a)
        return r

    def inv(self, a: int) -> int:
        if a == 0:
            raise FieldError("zero is not invertible")
        return self.pow(a, self.size - 2)

    def elements(self) -> range:
        return range(self.size)


@lru_cache(maxsize=None)
def make_field(f: int, delta: int = 1) -> FieldSpec:
    """Canonical FieldSpec for GF(2^{f*delta}); deterministic by construction."""
    return FieldSpec(f, delta)


def field_for(q: int, epsilon: int) -> FieldSpec:
    """The field GF(q^delta) of GL_d(q) (epsilon = 1) or GU_d(q) (epsilon = -1).

    Raises FieldError when q is not a power of 2 or the field degree is out
    of range.
    """
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


@lru_cache(maxsize=None)
def _factor_small(n: int) -> tuple[int, ...]:
    """Prime factors of n (n <= 2^20 - 1 here, so trial division suffices)."""
    primes = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        primes.append(n)
    return tuple(primes)


# --- Conway polynomial re-derivation (used for table verification) ------


@dataclass(frozen=True)
class _TrialField(FieldSpec):
    """GF(2)[x] modulo a trial modulus of degree f, with FieldSpec's own
    arithmetic; a field only when the modulus is irreducible."""

    modulus: int

    @property
    def defining_poly(self) -> int:
        return self.modulus


@lru_cache(maxsize=None)
def compute_conway_poly(n: int) -> int:
    """Re-derive the degree-n Conway polynomial from its definition."""
    if n == 1:
        return 0b11
    size = 1 << n
    top = size - 1
    factors = _factor_small(top)
    divisors = [m for m in range(1, n) if n % m == 0]

    def primitive(trial: _TrialField) -> bool:
        if trial.pow(2, top) != 1:
            return False
        return all(trial.pow(2, top // p) != 1 for p in factors)

    def compatible(trial: _TrialField) -> bool:
        for m in divisors:
            alpha = trial.pow(2, top // ((1 << m) - 1))
            lower = compute_conway_poly(m)
            # evaluate the lower Conway polynomial at alpha
            r = 0
            for i in range(lower.bit_length() - 1, -1, -1):
                r = trial.mul(r, alpha)
                if (lower >> i) & 1:
                    r ^= 1
            if r != 0:
                return False
        return True

    # scan in lexicographic order on the coefficient word a_{n-1},...,a_1
    for w in range(1 << (n - 1)):
        mid = 0
        for i in range(n - 1):
            if (w >> (n - 2 - i)) & 1:
                mid |= 1 << (n - 1 - i)
        trial = _TrialField(n, 1, size | mid | 1)
        if primitive(trial) and compatible(trial):
            return trial.modulus
    raise FieldError(f"no Conway polynomial found for degree {n}")
