"""Semisimple class data for GL_d(q) and GU_d(q) in characteristic 2.

A class is identified by (epsilon, d, q) and the factored characteristic
polynomial Xi over GF(q^delta) — a complete conjugacy invariant for
semisimple (odd-order) elements.  From the factorization alone this module
reads off the centralizer shape and order, realness, the odd-index
statistics, the case classifier for real classes with gcd(d, q-eps) > 1,
and the explicit palindromic/involution element constructions.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction

from .bounds import gl_order, group_order_eps, gu_order, odd_part
from .gf2k import FieldSpec, central_scalars, field_for, log_exp_tables
from .polyfield import (
    Factorization,
    MonicPoly,
    poly_dagger,
    poly_factor,
    poly_star,
    x_plus,
)


class SemisimpleError(ValueError):
    """Raised for invalid class data or classifier preconditions."""


@dataclass(frozen=True)
class CentralizerShape:
    factors: tuple[tuple[str, int, int], ...]  # (kind, m, Q)
    order: int
    odd_part: int


def _derived():
    """A class field that __post_init__'s walk sets: no argument, not compared."""
    return dataclasses.field(init=False, compare=False, repr=False)


@dataclass(frozen=True)
class SemisimpleClass:
    """(epsilon, d, q, factored Xi) naming a semisimple class of GL_d^eps(q).

    The constructor walks Xi's factors once and stores what every reader
    needs: the field, d1 (the multiplicity of x+1), `rest` (each (p, m)
    with p != x+1), the centralizer shape, Xi expanded and Xi-star."""

    epsilon: int
    d: int
    q: int
    xi: Factorization
    field: FieldSpec = _derived()
    d1: int = _derived()
    rest: tuple = _derived()
    shape: CentralizerShape = _derived()
    charpoly: MonicPoly = _derived()
    star: MonicPoly = _derived()

    def __post_init__(self):
        """The shape of C(s) is GL_m(q^k) per factor for GL.  For GU a
        self-dagger factor gives GU_m(q^k) and a dagger pair GL_m(q^2k),
        listed at its member with the smaller coefficients; a dagger of
        another multiplicity means Xi != Xi-dagger: no unitary element."""
        fld = field_for(self.q, self.epsilon)  # rejects a bad (epsilon, q) first
        if fld != self.xi.base_field:
            raise SemisimpleError(f"xi lives over {self.xi.base_field}, expected {fld}")
        if self.xi.degree != self.d:
            raise SemisimpleError(
                f"xi has degree {self.xi.degree}, class dimension is {self.d}"
            )
        one, d1, rest, shape = x_plus(fld, 1), 0, [], []
        mults = dict(self.xi.factors) if self.epsilon == -1 else None
        for p, m in self.xi.factors:
            if p.constant_term() == 0:
                raise SemisimpleError("Xi(0) = 0: element not invertible")
            if p == one:
                d1 = m
            else:
                rest.append((p, m))
            if self.epsilon == 1:
                shape.append(("GL", m, self.q**p.degree))
                continue
            dag = poly_dagger(p)
            if mults.get(dag) != m:
                raise SemisimpleError("Xi != Xi-dagger: no unitary element has this Xi")
            if dag == p:
                shape.append(("GU", m, self.q**p.degree))
            elif p.coeffs < dag.coeffs:
                shape.append(("GL", m, self.q ** (2 * p.degree)))
        order = 1
        for kind, m, Q in shape:
            order *= gu_order(m, Q) if kind == "GU" else gl_order(m, Q)
        charpoly = self.xi.expand()
        for name, value in (
            ("field", fld),
            ("d1", d1),
            ("rest", tuple(rest)),
            ("shape", CentralizerShape(tuple(shape), order, odd_part(order))),
            ("charpoly", charpoly),
            ("star", poly_star(charpoly)),
        ):
            object.__setattr__(self, name, value)

    @property
    def e(self) -> int:
        return math.gcd(self.d, self.q - self.epsilon)

    def is_identity(self) -> bool:
        return self.d1 == self.d


def semisimple_class(epsilon: int, d: int, q: int, xi) -> SemisimpleClass:
    """Build a class from either a MonicPoly or a ready Factorization.

    A MonicPoly of the wrong degree is refused before it is factored."""
    if isinstance(xi, MonicPoly):
        if xi.degree != d:
            raise SemisimpleError(f"xi has degree {xi.degree}, class dimension is {d}")
        xi = poly_factor(xi)
    return SemisimpleClass(epsilon, d, q, xi)


# --- centralizer shape, index and realness --------------------------------


def centralizer_shape(c: SemisimpleClass) -> CentralizerShape:
    """Direct-product shape of C(s) read off the factorization of Xi."""
    return c.shape


def index_odd_part(c: SemisimpleClass) -> int:
    """Odd part of [GL_d^eps(q) : C(s)]."""
    g = odd_part(group_order_eps(c.epsilon, c.d, c.q))
    cc = c.shape.odd_part
    if g % cc:
        raise SemisimpleError("centralizer odd part does not divide group odd part")
    return g // cc


def is_real_class(c: SemisimpleClass) -> bool:
    """s is conjugate to s^-1 iff Xi = Xi-star (Wall, 1963)."""
    return c.star == c.charpoly


def eigenspace_bound_failure(c: SemisimpleClass) -> MonicPoly | None:
    """The first non-(x+1) factor p^m of Xi with d < d1 + 2m deg p, or None
    when d >= d1 + 2mk holds, as it does for every real unitary class."""
    bad = (p for p, m in c.rest if c.d < c.d1 + 2 * m * p.degree)
    return next(bad, None)


# --- scalar twists and lifts ----------------------------------------------


def twisted_coeffs(xi: MonicPoly, k: int) -> tuple[int, ...]:
    """Coefficients of the charpoly of kappa*s, kappa = x^k: every root
    scales by kappa, so c_i becomes c_i kappa^(d-i) = x^(log c_i + (d-i) k).
    Logs are reduced mod n = Q - 1, as exp is not doubled above degree 16."""
    log, exp = log_exp_tables(xi.field.degree)
    n, d = xi.field.size - 1, xi.degree
    return tuple(
        exp[(log[a] + (d - i) * k) % n] if a else 0 for i, a in enumerate(xi.coeffs)
    )


# --- PGL / PGU projections -------------------------------------------------


def pgl_is_real(c: SemisimpleClass) -> bool:
    """Real in PGL^eps: some central scalar twist of Xi equals Xi-star.

    The constant terms must agree first: kappa^d c_0 = 1/c_0.  The centre
    is <x^s> of order m = q - eps, s = (Q - 1)/m, so kappa = x^(s j) solves
    it iff d s j = -2 log c_0 mod Q - 1: gcd(d, m) roots j mod m, or none."""
    xi, fld = c.charpoly, c.field
    n, m = fld.size - 1, c.q - c.epsilon
    s, g = n // m, math.gcd(c.d, m)
    t = -2 * log_exp_tables(fld.degree)[0][xi.constant_term()] % n
    if t % (s * g):
        return False
    j = t // (s * g) * pow(c.d // g, -1, m // g)
    star = c.star.coeffs
    return any(
        twisted_coeffs(xi, s * (j + i * m // g) % n) == star for i in range(g)
    )


def pgl_centralizer_order(c: SemisimpleClass) -> int:
    """|C_PGL(t)| = |C_GL(s)| * #{kappa central: kappa*s ~ s} / (q - eps).

    kappa*s ~ s iff kappa^(d-i) = 1 wherever Xi has c_i != 0, i.e. iff
    kappa^g = 1 for g the gcd of those d - i; the centre is cyclic."""
    g = math.gcd(*(c.d - i for i, a in enumerate(c.charpoly.coeffs) if a))
    stab = math.gcd(g, c.q - c.epsilon)
    return c.shape.order * stab // (c.q - c.epsilon)


# --- the case classifier ----------------------------------------------------


@dataclass(frozen=True)
class GUdPrepCase:
    cases: frozenset
    witnesses: dict

    def __post_init__(self):
        if not self.cases:
            raise SemisimpleError("classifier produced an empty case set")


def _structural_case_b(c: SemisimpleClass):
    """Xi = (x+1)^d1 * Delta^floor(d/2) with deg Delta = 2, Delta = Delta-star.

    The caller has checked Xi = Xi-star, so Delta = Delta-star and each
    multiplicity floor(d/2) follow from d1 = d mod 2 and factor degrees
    other than x+1 summing to 2 (star fixes no x + a but x+1)."""
    if c.d1 != c.d % 2 or sum(p.degree for p, _ in c.rest) != 2:
        return None
    delta = c.rest[0][0] if len(c.rest) == 1 else c.rest[0][0] * c.rest[1][0]
    return {"delta": str(delta), "delta_reducible": len(c.rest) == 2}


def check_classifier_group(epsilon: int, d: int, q: int) -> None:
    """The classifier's group-level preconditions: d >= 5, gcd(d, q - eps) > 1."""
    if d < 5:
        raise SemisimpleError("classifier needs d >= 5")
    if math.gcd(d, q - epsilon) <= 1:
        raise SemisimpleError("classifier needs gcd(d, q - eps) > 1")


def classify_gudprep(c: SemisimpleClass) -> GUdPrepCase:
    """Which of the cases (a)-(h) hold, with exact integer witnesses.

    Fractional exponents q^{d(d+1)/4} are handled by comparing fourth
    powers throughout.
    """
    check_classifier_group(c.epsilon, c.d, c.q)
    if c.is_identity():
        raise SemisimpleError("classifier excludes the identity class")
    if not is_real_class(c):
        raise SemisimpleError("classifier needs a real class")

    cases = set()
    witnesses: dict = {}
    d, q, eps = c.d, c.q, c.epsilon
    if 3 * c.d1 >= d:
        cases.add("a")
        witnesses["a"] = {"d1": c.d1, "d": d}
    b = _structural_case_b(c)
    if b is not None:
        cases.add("b")
        witnesses["b"] = b

    idx = index_odd_part(c)
    idx4 = idx**4
    qpow = q ** (d * (d + 1))  # (q^{d(d+1)/4})^4
    delta, f = c.field.delta, c.field.f

    thresholds = [
        ("c", (delta * c.e * f * (q - eps)) ** 4, False, True),
        ("d", 45**4, False, eps == -1 and q == 4),
        ("e", 15**4, False, eps == -1 and q == 2),
        ("f", 12**4, True, eps == -1 and (d, q) == (5, 4)),
        ("g", 51**4, True, eps == -1 and (d, q) == (6, 8)),
    ]
    for name, coeff, strict, applies in thresholds:
        if not applies:
            continue
        bound = coeff * qpow
        if idx4 > bound or (not strict and idx4 == bound):
            cases.add(name)
            witnesses[name] = {
                "index_odd_part": idx,
                "bound_fourth_power": bound,
                "strict": strict,
            }
    if eps == -1 and (d, q) == (6, 2):
        cases.add("h")
        witnesses["h"] = {"epsilon": eps, "d": d, "q": q}
    return GUdPrepCase(frozenset(cases), witnesses)


# --- the D statistic ---------------------------------------------------------


def d_statistic_fourth(c: SemisimpleClass) -> Fraction:
    """D^4 where D = [G:C]_odd * q^{-d(d+1)/4}."""
    return Fraction(index_odd_part(c) ** 4, c.q ** (c.d * (c.d + 1)))


def d_bound_fourth(c: SemisimpleClass) -> Fraction:
    """Fourth power of (1 - 1/q - 1/q^2)^{l'+1} q^{d(d-2d'-1)/4}."""
    q, d = c.q, c.d
    d_prime = max(m for _, m in c.xi.factors)
    l_prime = 0 if c.epsilon == 1 else 1 + len(c.rest)
    gap = Fraction(q * q - q - 1, q * q)
    exponent = d * (d - 2 * d_prime - 1)
    power = (
        Fraction(q**exponent) if exponent >= 0 else Fraction(1, q**-exponent)
    )
    return gap ** (4 * (l_prime + 1)) * power


def d_statistic_cmp(c: SemisimpleClass, bound: Fraction | None = None) -> int:
    """Sign of D^4 - bound^4 (bound defaults to the centralizer estimate)."""
    rhs = d_bound_fourth(c) if bound is None else Fraction(bound) ** 4
    lhs = d_statistic_fourth(c)
    return (lhs > rhs) - (lhs < rhs)


# --- explicit elements --------------------------------------------------------


@dataclass(frozen=True)
class DiagonalElement:
    field: FieldSpec
    entries: tuple[int, ...]
    epsilon: int
    q: int

    def det(self) -> int:
        r = 1
        for a in self.entries:
            r = self.field.mul(r, a)
        return r

    def charpoly(self) -> MonicPoly:
        out = MonicPoly(self.field, ())
        for a in self.entries:
            out = out * x_plus(self.field, a)
        return out


_SMALL_PATTERNS = {
    3: (1, 0, 1),  # positions of zeta (1) vs one (0)
    5: (1, 0, 0, 0, 1),
    6: (1, 1, 0, 0, 1, 1),
    7: (1, 1, 0, 0, 0, 1, 1),
}


def palindromic_element(
    d: int, q: int, epsilon: int, det_target: int
) -> DiagonalElement:
    """The palindromic diagonal with prescribed determinant.

    Entries lie in the order-(q - eps) subgroup, so the element belongs to
    GL_d(q) for eps = +1 and to GU_d(q) (anti-diagonal Hermitian form) for
    eps = -1.
    """
    fld = field_for(q, epsilon)
    n = q - epsilon
    # centre[k] = root^k for a fixed generator root of the order-n subgroup
    centre = central_scalars(fld, n)
    if det_target not in centre:
        raise SemisimpleError(
            f"determinant target {det_target} is not in the order-{n} subgroup"
        )
    s = centre.index(det_target)

    if d in _SMALL_PATTERNS:
        pattern = _SMALL_PATTERNS[d]
        count = sum(pattern)
        # zeta^count = target has a unique order-n solution: n is odd and
        # count is a power of 2
        inv_count = pow(count, -1, n)
        zeta = centre[(s * inv_count) % n]
        entries = tuple(zeta if bit else 1 for bit in pattern)
        return DiagonalElement(fld, entries, epsilon, q)

    if d < 9:
        raise SemisimpleError(f"no palindromic pattern for d = {d}")
    d_bar = 1 if d % 2 else 2
    d_p = (d - d_bar) // 4
    zeta = centre[1 % n]  # order exactly n
    if d - d_bar == 4 * d_p:
        zeta_exp = 2 * d_p
        core = (
            [zeta] * d_p + [1] * d_p + ["xi"] * d_bar + [1] * d_p + [zeta] * d_p
        )
    else:
        zeta_exp = 2 * d_p - 2
        zinv = fld.inv(zeta)
        core = (
            [zeta] * d_p
            + [1] * d_p
            + [zinv]
            + ["xi"] * d_bar
            + [zinv]
            + [1] * d_p
            + [zeta] * d_p
        )
    # xi = zeta^j with zeta^(j*d_bar + zeta_exp) = target
    j = ((s - zeta_exp) * pow(d_bar, -1, n)) % n
    xi = centre[j]
    entries = tuple(xi if a == "xi" else a for a in core)
    elem = DiagonalElement(fld, entries, epsilon, q)
    if elem.det() != det_target or len(entries) != d:
        raise SemisimpleError("internal error: palindromic construction failed")
    return elem


@dataclass(frozen=True)
class InvolutionBlocks:
    d: int
    l: int
    q: int
    epsilon: int
    rows: tuple[tuple[int, ...], ...]
    centralizer_order: int


def involution_with_blocks(d: int, l: int, q: int, epsilon: int) -> InvolutionBlocks:
    """Identity plus an l x l corner block: an involution with l Jordan
    2-blocks, plus its predicted centralizer order q^{2ld-3l^2} *
    |GL_l^eps(q)| * |GL_{d-2l}^eps(q)|.
    """
    if not 0 <= 2 * l <= d:
        raise SemisimpleError("need 0 <= 2l <= d")
    rows = []
    for i in range(d):
        row = [0] * d
        row[i] = 1
        if i < l:
            row[d - l + i] = 1
        rows.append(tuple(row))
    order = (
        q ** (2 * l * d - 3 * l * l)
        * group_order_eps(epsilon, l, q)
        * group_order_eps(epsilon, d - 2 * l, q)
    ) if l else group_order_eps(epsilon, d, q)
    return InvolutionBlocks(d, l, q, epsilon, tuple(rows), order)


def min_character_degree(c: SemisimpleClass) -> int:
    """Clifford floor: ceil([G:C]_odd / gcd(d, q - eps))."""
    idx = index_odd_part(c)
    return -(-idx // c.e)
