"""The three benchmark workloads and the checks that gate them.

Each workload is a function ``run(seed, timer)`` that does one pass through
the public API or the CLI and returns a ``Pass``.  ``timer`` times the pass;
work outside it (input generation, checks) is not timed.  Inside it the pass
is cut into back-to-back segments whose names are the same in every pass of
one seed, so that a run can take each segment's least time over its passes
(see ``run.py``).  Every library call goes through a module attribute
(``polyfield.poly_factor``, not a name imported here), so a tracer that
rebinds those attributes sees it.  ``README.md`` says why each workload and
input size was chosen.
"""

from __future__ import annotations

import io
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

from e1forge import autos, bounds, cli, gf2k, polyfield, semisimple

# oracle verify groups: (kind, d, q); each call is one segment, so none may
# be long (GL_3(4) and GU_3(2) are left out for that reason)
ORACLE_GROUPS = [("GL", 2, 4), ("GL", 3, 2), ("GL", 2, 8), ("GU", 2, 2), ("GU", 2, 4)]

# irreducibles: (f, delta, top degree); GF(4) and GF(16) as delta=2 fields so
# that the dagger duality applies
IRREDUCIBLE_FIELDS = [(1, 1, 9), (1, 2, 5), (3, 1, 3), (2, 2, 2)]

# random monic polynomials to factor: (field degree, poly degree, count).
# Factoring cost clusters by factor pattern; a spread of degrees smooths the
# item-latency distribution, so its percentiles do not jump between
# clusters from one seed to the next.
FACTOR_INPUTS = [(8, d, 30) for d in range(4, 9)] + [(20, d, 15) for d in range(3, 7)]

# census groups: (epsilon, d, q)
CENSUS_GROUPS = [(1, 3, 8), (1, 4, 4), (1, 2, 16), (-1, 3, 4), (-1, 2, 8)]
SWEEPS = [(-1, 5, 4), (-1, 6, 2)]
WORD_GROUPS = [(3, 4, 1), (3, 2, -1), (4, 2, 1), (2, 4, -1)]
WORDS_PER_GROUP = 25
WORD_MAX_POWER = 24
ORDER_BOUND_GROUPS = [(3, 4, 1), (3, 2, -1), (4, 4, 1)]


@dataclass
class Pass:
    """What one pass did: segment times, checks and report bytes."""

    segments: dict = field(default_factory=dict)  # name -> seconds, in order
    items: list = field(default_factory=list)  # names of the item segments
    checks: int = 0
    failures: list = field(default_factory=list)
    report_bytes: int = 0

    def mark(self, name: str, start: float, item: bool = False) -> float:
        """Record the segment that began at ``start``; return the time now,
        which is where the next segment begins."""
        now = time.perf_counter()
        self.segments[name] = now - start
        if item:
            self.items.append(name)
        return now

    def check(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(what)

    def cli(self, argv: list[str]) -> tuple[int, dict]:
        """Run the CLI in-process; return its exit code and parsed report."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        text = out.getvalue()
        self.report_bytes += len(text.encode())
        try:
            return code, json.loads(text)["report"]
        except (ValueError, KeyError):
            return code, {}


def _field(epsilon: int, q: int):
    return gf2k.make_field(q.bit_length() - 1, 2 if epsilon == -1 else 1)


def class_count(epsilon: int, d: int, q: int) -> int:
    """Semisimple classes of GL_d(q) (q^d - q^{d-1}) or GU_d(q) (q^d + q^{d-1})."""
    return q**d - epsilon * q ** (d - 1)


def necklace(size: int, k: int) -> int:
    """Monic irreducibles of degree k over GF(size), by Gauss's formula."""

    def mobius(n: int) -> int:
        out, p = 1, 2
        while p * p <= n:
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                out = -out
            p += 1
        return -out if n > 1 else out

    return sum(mobius(j) * size ** (k // j) for j in range(1, k + 1) if k % j == 0) // k


def census(epsilon: int, d: int, q: int) -> tuple[int, int]:
    """(class count, sum of |G|/|C(s)|) over every semisimple class."""
    order = bounds.group_order_eps(epsilon, d, q)
    count = total = 0
    for fac in polyfield.enumerate_charpolys(d, _field(epsilon, q), unitary=epsilon == -1):
        cls = semisimple.SemisimpleClass(epsilon, d, q, fac)
        count += 1
        total += order // semisimple.centralizer_shape(cls).order
    return count, total


# --- oracle ------------------------------------------------------------------


def oracle(seed: int, timer) -> Pass:
    run = Pass()
    reports = []
    with timer:
        t = time.perf_counter()
        for kind, d, q in ORACLE_GROUPS:
            argv = ["oracle", "verify", "--group", kind, "--d", str(d), "--q", str(q)]
            reports.append(run.cli(argv + ["--seed", str(seed)]))
            t = run.mark(f"oracle verify {kind}_{d}({q})", t, item=True)
    for (kind, d, q), (code, report) in zip(ORACLE_GROUPS, reports):
        name = f"{kind}_{d}({q})"
        epsilon = -1 if kind == "GU" else 1
        count, elements = census(epsilon, d, q)
        run.check(code == 0 and report.get("ok") is True, f"oracle verify {name} ok")
        run.check(
            count == class_count(epsilon, d, q),
            f"{name} census has {count} classes",
        )
        run.check(
            report.get("charpoly_classes") == str(count),
            f"{name} oracle charpoly classes {report.get('charpoly_classes')} != {count}",
        )
        run.check(
            report.get("odd_order_elements") == str(elements),
            f"{name} odd-order elements {report.get('odd_order_elements')} != "
            f"class equation {elements}",
        )
    return run


# --- poly ----------------------------------------------------------------------


def _duality_violations(fld, irr: dict) -> int:
    """Criterion-6 laws: star and dagger are involutions on irreducibles of
    each degree, self-dual ones have even degree (x+1 aside), and both are
    multiplicative on products of small irreducibles."""
    bad = 0
    x_plus_one = polyfield.x_plus(fld, 1)
    for k, polys in irr.items():
        same_degree = set(polys)
        for p in polys:
            if p.constant_term() == 0:
                continue
            s = polyfield.poly_star(p)
            if polyfield.poly_star(s) != p or s not in same_degree:
                bad += 1
            if p == s and p != x_plus_one and k % 2:
                bad += 1
            if fld.delta == 2:
                dg = polyfield.poly_dagger(p)
                if polyfield.poly_dagger(dg) != p or dg not in same_degree:
                    bad += 1
                if p == dg and k % 2 == 0:
                    bad += 1
    small = [p for p in irr[1][:3] + irr[2][:3] if p.constant_term()]
    for a in small:
        for b in small:
            if polyfield.poly_star(a * b) != polyfield.poly_star(a) * polyfield.poly_star(b):
                bad += 1
            if fld.delta == 2 and polyfield.poly_dagger(a * b) != polyfield.poly_dagger(
                a
            ) * polyfield.poly_dagger(b):
                bad += 1
    return bad


def factor_inputs(seed: int) -> list:
    rng = random.Random(seed)
    out = []
    for k, degree, count in FACTOR_INPUTS:
        fld = gf2k.make_field(k, 1)
        for _ in range(count):
            coeffs = tuple(rng.randrange(fld.size) for _ in range(degree))
            out.append(polyfield.MonicPoly(fld, coeffs))
    return out


def poly(seed: int, timer) -> Pass:
    run = Pass()
    inputs = factor_inputs(seed)
    found = {}
    violations = {}
    factored = []
    with timer:
        t = time.perf_counter()
        for f, delta, top in IRREDUCIBLE_FIELDS:
            fld = gf2k.make_field(f, delta)
            irr = found[fld] = {}
            for k in range(1, top + 1):
                irr[k] = list(polyfield.irreducibles(fld, k))
                t = run.mark(f"irreducibles GF({fld.size}) degree {k}", t)
            violations[fld] = _duality_violations(fld, irr)
            t = run.mark(f"duality GF({fld.size})", t)
        for i, p in enumerate(inputs):
            factored.append(polyfield.poly_factor(p))
            t = run.mark(f"factor #{i}", t, item=True)
    for fld, irr in found.items():
        for k, polys in irr.items():
            expected = necklace(fld.size, k)
            run.check(
                len(polys) == expected,
                f"{len(polys)} irreducibles of degree {k} over GF({fld.size}), "
                f"necklace formula gives {expected}",
            )
        run.check(
            violations[fld] == 0,
            f"{violations[fld]} duality violations over GF({fld.size})",
        )
    for p, fac in zip(inputs, factored):
        run.check(fac.expand() == p, f"factorization of {p} does not expand back")
    return run


# --- formulas ------------------------------------------------------------------


def _census_pass(run: Pass, epsilon: int, d: int, q: int) -> list[int]:
    """Per class: shape, odd index, realness and the PGL data; one item each,
    including the enumeration step that produced the class.  Returns the
    centralizer orders."""
    orders = []
    t = time.perf_counter()
    stream = polyfield.enumerate_charpolys(d, _field(epsilon, q), unitary=epsilon == -1)
    for fac in stream:
        cls = semisimple.SemisimpleClass(epsilon, d, q, fac)
        orders.append(semisimple.centralizer_shape(cls).order)
        semisimple.index_odd_part(cls)
        semisimple.is_real_class(cls)
        semisimple.pgl_is_real(cls)
        semisimple.pgl_centralizer_order(cls)
        t = run.mark(f"class ({epsilon},{d},{q}) #{len(orders)}", t, item=True)
    return orders


def auto_words(seed: int) -> list:
    """Random words, the same number in each group, so the cost of a pass
    does not depend on how a seed happens to split the words between groups."""
    rng = random.Random(seed)
    return [
        autos.random_word(d, q, epsilon, rng)
        for _ in range(WORDS_PER_GROUP)
        for d, q, epsilon in WORD_GROUPS
    ]


def formulas(seed: int, timer) -> Pass:
    run = Pass()
    words = auto_words(seed)
    sweeps, mismatches, violations = [], 0, 0
    with timer:
        census_orders = [_census_pass(run, *g) for g in CENSUS_GROUPS]
        t = time.perf_counter()
        for e, d, q in SWEEPS:
            sweeps.append(run.cli(["sweep", "--epsilon", str(e), "--d", str(d), "--q", str(q)]))
            t = run.mark(f"sweep ({e},{d},{q})", t)
        for i, w in enumerate(words):
            for power in range(1, WORD_MAX_POWER + 1):
                if autos.twisted_norm(w, power) != autos.naive_power(w, power):
                    mismatches += 1
            t = run.mark(f"word #{i}", t)
        for g in ORDER_BOUND_GROUPS:
            violations += len(autos.verify_order_bound(*g)["violations"])
            t = run.mark(f"order bound {g}", t)
        certify_code, certs = run.cli(["certify", "--all"])
        run.mark("certify --all", t)
    for (e, d, q), orders in zip(CENSUS_GROUPS, census_orders):
        run.check(
            len(orders) == class_count(e, d, q),
            f"census ({e},{d},{q}) has {len(orders)} classes, "
            f"expected {class_count(e, d, q)}",
        )
        group = bounds.group_order_eps(e, d, q)
        run.check(
            all(group % order == 0 for order in orders),
            f"census ({e},{d},{q}): a centralizer order does not divide |G|",
        )
    for (e, d, q), (code, report) in zip(SWEEPS, sweeps):
        run.check(code == 0 and report.get("ok") is True, f"sweep ({e},{d},{q}) ok")
    run.check(mismatches == 0, f"{mismatches} twisted-norm mismatches")
    run.check(violations == 0, f"{violations} order-bound violations")
    entries = certs.get("entries", [])
    run.check(
        certify_code == 0 and certs.get("ok") is True and entries,
        "certify --all ok",
    )
    for entry in entries:
        tail = entry["range"].endswith("..")
        run.check(
            entry["status"] == "verified" and (entry["replayed"] is True or not tail),
            f"certificate {entry['id']} verified and replayed",
        )
    return run


WORKLOADS = {"oracle": oracle, "poly": poly, "formulas": formulas}
