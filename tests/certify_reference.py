"""The two-copy dominance certifier, kept as the reference.

`_tail_witness` searched for the crossover f0 and `replay_witness`
re-checked a stored witness, each with its own copy of the dominance test;
`certify` built its certificate on four separate return paths.  The
certifier in `e1forge.bounds` shares one predicate between search and
replay; the tests compare the two on generated expressions, in status,
witness and replay.  `parse_by_products` parses with base^n built by n
products, each checked against the size limits, as the parser once did.
"""

from fractions import Fraction

from e1forge.bounds import (
    MAX_EXPONENT,
    RELATIONS,
    BoundsError,
    InequalityCert,
    _difference,
    _literal,
    _Parser,
    _poly_mul,
    eval_poly,
    parse_expression,
)


class _ProductParser(_Parser):
    def factor(self) -> dict:
        base = self.atom()
        if self.peek() == "^":
            self.take()
            tok = self.take()
            if tok is None or not tok.isdigit():
                raise BoundsError("exponent must be a literal integer")
            out = {(0, 0): 1}
            for _ in range(_literal(tok, MAX_EXPONENT, "exponent")):
                out = _poly_mul(out, base)
            return out
        return base


def parse_by_products(text: str) -> dict:
    return _ProductParser(text).parse()


def _holds(value: int, strict: bool) -> bool:
    return value > 0 if strict else value >= 0


def tail_witness(poly: dict, start: int) -> dict | None:
    if not poly:
        return None
    lead = max(poly)  # lexicographic on (e_q, e_f)
    c_lead = poly[lead]
    if c_lead <= 0:
        return None
    others = [(k, v) for k, v in poly.items() if k != lead]
    if not others:
        return {"f0": start, "leading": [*lead, str(c_lead)], "terms": []}
    E, J = lead
    for (e, j), _ in others:
        if e == E and j >= J:
            return None
        if e == E and j < J:
            continue
        # e < E: exponential gap available
    weight = Fraction(c_lead, len(others))
    for f0 in range(start, start + 512):
        good = True
        for (e, j), c in others:
            de, dj = E - e, J - j
            if de == 0 and dj < 0:
                good = False
                break
            ratio = Fraction(1 << (de * f0)) * Fraction(f0) ** dj
            if weight * ratio < 2 * abs(c):
                good = False
                break
            if dj < 0:
                # ratio must be nondecreasing beyond f0:
                # (f0+1)^m <= 2^de * f0^m with m = -dj
                m = -dj
                if (f0 + 1) ** m > (1 << de) * f0**m:
                    good = False
                    break
        if good:
            return {
                "f0": f0,
                "leading": [E, J, str(c_lead)],
                "terms": [[e, j, str(c)] for (e, j), c in others],
            }
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
    lp, rp = parse_expression(lhs), parse_expression(rhs)
    diff, strict = _difference(lp, rp, rel)

    def finite_ok(a: int, b: int) -> bool:
        return all(_holds(eval_poly(diff, f), strict) for f in range(a, b + 1))

    if range_end is not None:
        status = "verified" if finite_ok(range_start, range_end) else "failed"
        witness = {"checked": [range_start, range_end]}
        return InequalityCert(
            cert_id, lhs, rel, rhs, range_start, range_end, status, witness, anchor
        )

    witness = tail_witness(diff, range_start)
    if witness is None:
        return InequalityCert(
            cert_id, lhs, rel, rhs, range_start, None, "tail-unproved", {}, anchor
        )
    if not finite_ok(range_start, witness["f0"]):
        return InequalityCert(
            cert_id, lhs, rel, rhs, range_start, None, "failed", witness, anchor
        )
    return InequalityCert(
        cert_id, lhs, rel, rhs, range_start, None, "verified", witness, anchor
    )


def replay_witness(cert: InequalityCert) -> bool:
    if cert.range_end is not None or not cert.witness:
        return False
    diff, strict = _difference(
        parse_expression(cert.lhs), parse_expression(cert.rhs), cert.rel
    )
    f0 = cert.witness["f0"]
    E, J, c_lead = cert.witness["leading"]
    if diff.get((E, J), 0) != int(c_lead) or int(c_lead) <= 0:
        return False
    others = [(k, v) for k, v in diff.items() if k != (E, J)]
    stored = {(e, j): int(c) for e, j, c in cert.witness["terms"]}
    if dict(others) != stored:
        return False
    weight = Fraction(int(c_lead), max(len(others), 1))
    for (e, j), c in others:
        de, dj = E - e, J - j
        if de == 0 and dj < 0:
            return False
        ratio = Fraction(1 << (de * f0)) * Fraction(f0) ** dj
        if weight * ratio < 2 * abs(c):
            return False
        if dj < 0 and (f0 + 1) ** (-dj) > (1 << de) * f0 ** (-dj):
            return False
    return all(
        _holds(eval_poly(diff, f), strict) for f in range(cert.range_start, f0 + 1)
    )
