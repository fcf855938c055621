"""Exact group orders, centralizer-bound constants, and the inequality
certifier.

All inequalities live in two integer variables q and f with q = 2^f.  An
expression parses into a sparse polynomial {(e_q, e_f): coeff}, so every
verdict is an exact integer comparison.  Finite f-ranges are checked
exhaustively; tail ranges (f >= a) are certified by leading-term dominance
with an explicit crossover point f0 and an exhaustive check of [a, f0].
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources


class BoundsError(ValueError):
    """Raised for malformed expressions, ranges or descriptors."""


def odd_part(n: int) -> int:
    """n with its factors of 2 removed; n & -n is the largest power of 2 in n."""
    if n < 1:
        raise BoundsError(f"odd part needs n >= 1, got {n}")
    return n >> (n & -n).bit_length() - 1


# --- group orders --------------------------------------------------------


def gl_order(m: int, Q: int) -> int:
    r = Q ** (m * (m - 1) // 2)
    for i in range(1, m + 1):
        r *= Q**i - 1
    return r


def gu_order(m: int, Q: int) -> int:
    r = Q ** (m * (m - 1) // 2)
    for i in range(1, m + 1):
        r *= Q**i - (-1) ** i
    return r


def group_order_eps(epsilon: int, d: int, q: int) -> int:
    """|GL_d^epsilon(q)| as a plain integer."""
    return gu_order(d, q) if epsilon == -1 else gl_order(d, q)


GROUP_KINDS = ("GL", "GU", "SL", "SU", "PGL", "PGU")


def group_order(kind: str, d: int, q: int) -> int:
    """|kind_d(q)|; SL, SU, PGL and PGU divide by the centre's order q - epsilon."""
    if kind not in GROUP_KINDS:
        raise BoundsError(f"unsupported group kind {kind!r}")
    if d < 1 or q < 2 or q & (q - 1):
        raise BoundsError(f"need d >= 1 and q a power of 2, got d={d}, q={q}")
    epsilon = -1 if kind.endswith("U") else 1
    value = group_order_eps(epsilon, d, q)
    return value if kind in ("GL", "GU") else value // (q - epsilon)


def order_estimate_check(a, m: int) -> bool:
    """Two-sided bounds on prod(a^i - 1) and prod(a^i - (-1)^i), exactly."""
    a = Fraction(a)
    if a < 2 or m < 2:
        raise BoundsError("need a >= 2 and m >= 2")
    lead = a ** (m * (m + 1) // 2)
    gap = 1 - 1 / a - 1 / a**2
    prod_lin = Fraction(1)
    prod_uni = Fraction(1)
    for i in range(1, m + 1):
        prod_lin *= a**i - 1
        prod_uni *= a**i - (-1) ** i
    return (
        lead * gap <= prod_lin <= lead
        and lead * gap <= prod_uni <= lead / gap
    )


# --- the M_G table -------------------------------------------------------


@dataclass(frozen=True)
class MGValue:
    descriptor: str
    value: int


def mg(kind: str, q: int, d: int | None = None, epsilon: int = 1) -> MGValue:
    """Per-group centralizer bound: E6, PSL/PSU of degree 3 or >= 5, POmega8+."""
    eps_tag = "+" if epsilon == 1 else "-"
    if kind == "E6":
        return MGValue(f"E6^{eps_tag}({q})", q**48)
    if kind == "PSL":
        if d is None:
            raise BoundsError("PSL needs a degree")
        desc = f"PSL{eps_tag}_{d}({q})"
        if d >= 5:
            return MGValue(desc, q ** (d * (d + 1) // 2))
        if d == 3:
            if epsilon == 1:
                return MGValue(desc, 62401 if q == 16 else q**4)
            return MGValue(desc, q**4 + q**3)
        raise BoundsError(f"degree {d} outside the table")
    if kind == "PO8+":
        return MGValue(f"POmega8+({q})", q**14 + q**12)
    raise BoundsError(f"unknown group kind {kind!r}")


# --- expression parser: sparse polynomials in q = 2^f and f --------------

# input limits, far above the registry's (largest exponent 48, largest f 19;
# at most 9 terms of total degree 48 with 38-bit coefficients)
MAX_EXPONENT = 1000  # a literal exponent after ^
MAX_F = 1024  # either end of an f-range
# every product the parser forms: its total degree in q and f, its term
# pairs, and the bits of its largest coefficient; with these a parse ends
# within about a second however its powers nest
MAX_DEGREE = 1000
MAX_TERM_PAIRS = 4096
MAX_COEFF_BITS = 100_000


def _literal(text: str, limit: int | None = None, what: str = "literal") -> int:
    try:
        value = int(text)
    except ValueError:  # "1 2", or longer than Python's integer-string limit
        raise BoundsError(f"malformed or over-long integer {what}")
    if limit is not None and value > limit:
        raise BoundsError(f"{what} exceeds {limit}")
    return value


_TOKEN_RE = re.compile(r"\s*(\d+|[qf+\-*^()])")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise BoundsError(f"bad character in expression at {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def _poly_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + sign * v
        if out[k] == 0:
            del out[k]
    return out


def _poly_mul(a: dict, b: dict) -> dict:
    """a * b, refused before multiplying when the product could exceed the
    size limits."""
    degree = max(map(sum, a), default=0) + max(map(sum, b), default=0)
    bits = max(map(int.bit_length, map(abs, a.values())), default=0) + max(
        map(int.bit_length, map(abs, b.values())), default=0
    )
    if degree > MAX_DEGREE:
        raise BoundsError(f"polynomial degree exceeds {MAX_DEGREE}")
    if len(a) * len(b) > MAX_TERM_PAIRS:
        raise BoundsError(f"product of more than {MAX_TERM_PAIRS} term pairs")
    if bits > MAX_COEFF_BITS:
        raise BoundsError(f"coefficient exceeds {MAX_COEFF_BITS} bits")
    out: dict = {}
    for (ea, ja), ca in a.items():
        for (eb, jb), cb in b.items():
            k = (ea + eb, ja + jb)
            out[k] = out.get(k, 0) + ca * cb
            if out[k] == 0:
                del out[k]
    return out


def _poly_pow(base: dict, n: int) -> dict:
    """base^n as the n products base^(k-1) * base, k = 1..n, each refused
    as _poly_mul refuses it.

    A one-term base c q^e f^j whose n products all pass the limits is
    c^n q^(ne) f^(nj) in one step, c^n by square-and-multiply: every
    base^(k-1) * base then has degree k(e + j) <= n(e + j), one term pair,
    and at most kb <= nb coefficient bits, b the bits of c.  Other bases
    take the n products: their cancellations, and so the key order of the
    result (the order of a witness's terms), follow the product sequence.
    """
    if len(base) == 1:
        ((e, j), c), = base.items()
        bits = abs(c).bit_length()
        if c and n * (e + j) <= MAX_DEGREE and n * bits <= MAX_COEFF_BITS:
            return {(n * e, n * j): c**n}
    out = {(0, 0): 1}
    for _ in range(n):
        out = _poly_mul(out, base)
    return out


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self) -> dict:
        poly = self.expr()
        if self.peek() is not None:
            raise BoundsError(f"trailing input at token {self.peek()!r}")
        return poly

    def expr(self) -> dict:
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        out = _poly_add({}, self.term(), sign)
        while self.peek() in ("+", "-"):
            op = self.take()
            out = _poly_add(out, self.term(), 1 if op == "+" else -1)
        return out

    def term(self) -> dict:
        out = self.factor()
        while True:
            tok = self.peek()
            if tok == "*":
                self.take()
                out = _poly_mul(out, self.factor())
            elif tok is not None and (tok.isdigit() or tok in ("q", "f", "(")):
                out = _poly_mul(out, self.factor())  # juxtaposition
            else:
                return out

    def factor(self) -> dict:
        base = self.atom()
        if self.peek() == "^":
            self.take()
            tok = self.take()
            if tok is None or not tok.isdigit():
                raise BoundsError("exponent must be a literal integer")
            return _poly_pow(base, _literal(tok, MAX_EXPONENT, "exponent"))
        return base

    def atom(self) -> dict:
        tok = self.take()
        if tok is None:
            raise BoundsError("unexpected end of expression")
        if tok.isdigit():
            return {(0, 0): _literal(tok)}
        if tok == "q":
            return {(1, 0): 1}
        if tok == "f":
            return {(0, 1): 1}
        if tok == "(":
            inner = self.expr()
            if self.take() != ")":
                raise BoundsError("unbalanced parentheses")
            return inner
        raise BoundsError(f"unexpected token {tok!r}")


def parse_expression(text: str) -> dict:
    """Parse into {(e_q, e_f): integer coefficient} with q treated as 2^f."""
    return _Parser(text).parse()


def eval_poly(poly: dict, f: int) -> int:
    return sum(c * (1 << (e * f)) * f**j for (e, j), c in poly.items())


# --- certification -------------------------------------------------------

RELATIONS = (">", ">=", "<", "<=")


@dataclass(frozen=True)
class InequalityCert:
    id: str
    lhs: str
    rel: str
    rhs: str
    range_start: int
    range_end: int | None  # None means the tail f >= range_start
    status: str  # verified | failed | tail-unproved
    witness: dict
    anchor: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "verified"


def _difference(lhs: dict, rhs: dict, rel: str) -> tuple[dict, bool]:
    """Rewrite as P >= 0 (or P > 0); returns (P, strict)."""
    if rel in (">", ">="):
        return _poly_add(lhs, rhs, -1), rel == ">"
    if rel in ("<", "<="):
        return _poly_add(rhs, lhs, -1), rel == "<"
    raise BoundsError(f"unknown relation {rel!r}")


def _holds_on(poly: dict, strict: bool, a: int, b: int) -> bool:
    """P > 0 (strict) or P >= 0 at every f in a..b."""
    values = (eval_poly(poly, f) for f in range(a, b + 1))
    return all(v > 0 if strict else v >= 0 for v in values)


def _dominates(poly: dict, lead: tuple, f0: int) -> bool:
    """From f0 on, the positive top term `lead` alone wins.

    Splits the leading coefficient into equal shares over the other terms
    and demands a factor-2 margin per term, so the conclusion is strict
    positivity.
    """
    c_lead = poly.get(lead, 0)
    if c_lead <= 0 or lead != max(poly) or f0 < 1:
        return False
    E, J = lead
    share = Fraction(c_lead, max(len(poly) - 1, 1))
    for (e, j), c in poly.items():
        if (e, j) == lead:
            continue
        de, dj = E - e, J - j
        if share * (1 << (de * f0)) * Fraction(f0) ** dj < 2 * abs(c):
            return False
        # the ratio must be nondecreasing beyond f0:
        # (f0+1)^m <= 2^de * f0^m with m = -dj
        if dj < 0 and (f0 + 1) ** -dj > (1 << de) * f0**-dj:
            return False
    return True


def _tail_witness(poly: dict, start: int) -> dict | None:
    """Dominance certificate: the first f0 in [start, start + 512) from
    which the leading term wins; None when there is none."""
    lead = max(poly, default=None)  # lexicographic on (e_q, e_f)
    for f0 in range(start, start + 512):
        if _dominates(poly, lead, f0):
            terms = [[e, j, str(c)] for (e, j), c in poly.items() if (e, j) != lead]
            return {"f0": f0, "leading": [*lead, str(poly[lead])], "terms": terms}
    return None


def certify(
    cert_id: str,
    lhs: str,
    rel: str,
    rhs: str,
    range_start: int,
    range_end: int | None,
    anchor: str = "",
) -> InequalityCert:
    if rel not in RELATIONS:
        raise BoundsError(f"unknown relation {rel!r}")
    if range_start < 1:
        raise BoundsError("f ranges start at 1")
    if range_end is not None and range_start > range_end:
        raise BoundsError(f"empty f-range {range_start}..{range_end}")
    diff, strict = _difference(parse_expression(lhs), parse_expression(rhs), rel)
    if range_end is not None:
        witness, end = {"checked": [range_start, range_end]}, range_end
    else:
        witness = _tail_witness(diff, range_start) or {}
        end = witness.get("f0")
    if end is None:
        status = "tail-unproved"
    else:
        status = "verified" if _holds_on(diff, strict, range_start, end) else "failed"
    return InequalityCert(
        cert_id, lhs, rel, rhs, range_start, range_end, status, witness, anchor
    )


def replay_witness(cert: InequalityCert) -> bool:
    """Re-validate a tail certificate from its stored witness data."""
    if cert.range_end is not None or not cert.witness:
        return False
    diff, strict = _difference(
        parse_expression(cert.lhs), parse_expression(cert.rhs), cert.rel
    )
    f0, (E, J, c_lead) = cert.witness["f0"], cert.witness["leading"]
    stored = {(e, j): int(c) for e, j, c in cert.witness["terms"]}
    # the stored terms must be the difference polynomial, term for term
    return (
        {(E, J): int(c_lead), **stored} == diff
        and _dominates(diff, (E, J), f0)
        and _holds_on(diff, strict, cert.range_start, f0)
    )


# --- registry ------------------------------------------------------------


_RANGE_RE = re.compile(r"(\d+)\s*(?:\+|\.\.\s*(\d+))")


def parse_range(text: str) -> tuple[int, int | None]:
    """'a..b', or 'a+' for the tail f >= a; a and b are at most MAX_F."""
    m = _RANGE_RE.fullmatch(text.strip())
    if not m:
        raise BoundsError(f"bad f-range {text!r}")
    start, end = (x and _literal(x, MAX_F, "f-range end") for x in m.groups())
    return start, end


def load_registry(path=None) -> list[tuple]:
    """Entries as (id, lhs, rel, rhs, start, end, anchor) tuples."""
    if path is None:
        source = (
            resources.files("e1forge").joinpath("data/registry.txt").read_text()
        )
    else:
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
    entries = []
    for lineno, line in enumerate(source.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 6:
            raise BoundsError(f"registry line {lineno}: expected 6 fields")
        cert_id, lhs, rel, rhs, frange, anchor = parts
        start, end = parse_range(frange)
        entries.append((cert_id, lhs, rel, rhs, start, end, anchor))
    return entries


def certify_all(path=None) -> list[InequalityCert]:
    return [certify(*entry) for entry in load_registry(path)]
