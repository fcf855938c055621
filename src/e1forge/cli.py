"""Command-line surface: classify, certify, oracle verify, auto-order, sweep.

Reports are JSON (default) or TSV, with every exact integer serialized as a
decimal string so nothing is ever truncated to 64 bits.  Exit codes: 0 all
checks pass, 1 at least one check failed, 2 usage or configuration error
(bad q or d, a budget overrun or a budget too large for memory, an
unsupported group size, a sweep outside the classifier's range, a registry
that is not UTF-8, an --output that cannot be written).
Runs are deterministic for a fixed configuration; the only randomness knob
is --seed, which only picks the GU elements the oracle's closure samples.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import __version__, autos, bounds, semisimple
from .gf2k import FieldError, field_for
from .polyfield import (
    ENUM_BUDGET,
    MonicPoly,
    PolyError,
    enumerate_charpolys,
    format_poly,
    parse_poly,
    x_plus,
)

USAGE_ERROR = 2
CHECK_FAILURE = 1


class UsageError(Exception):
    pass


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _budget(args) -> int:
    env = os.environ.get("E1FORGE_BUDGET")
    if args.budget is not None:
        return args.budget
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise UsageError(f"E1FORGE_BUDGET must be an integer, got {env!r}")
        if value < 1:
            raise UsageError("E1FORGE_BUDGET must be >= 1")
        return value
    return ENUM_BUDGET


# --- the --xi mini-language ------------------------------------------------

_XI_FACTOR = re.compile(
    r"\s*(?:\(x\+(?P<root>w2|w|\d+)\)|\[(?P<coeffs>[\d,\s]+)\])(?:\^(?P<exp>\d+))?"
)


def _xi_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:  # "1 2", or longer than Python's integer-string limit
        raise UsageError("--xi has a malformed or over-long integer literal")


def parse_xi(text: str, field, d: int) -> MonicPoly:
    """Products of powers of (x+<elt>) and bracketed coefficient lists.

    w and w2 abbreviate the two GF(4) cube roots of unity (encodings 2, 3).
    A factor that would take the degree above d is rejected before its
    power is built, and a poly(...) above degree d before it is factored.
    """
    text = text.strip()
    if text.startswith("poly("):
        out = parse_poly(text, field)
        if out.degree > d:
            raise UsageError(f"--xi has degree {out.degree}, expected d = {d}")
        return out
    out = MonicPoly(field, ())
    pos = 0
    while pos < len(text):
        m = _XI_FACTOR.match(text, pos)
        if not m:
            raise UsageError(f"cannot parse --xi near {text[pos:]!r}")
        if m.group("root") is not None:
            root = m.group("root")
            enc = {"w": 2, "w2": 3}.get(root) or _xi_int(root)
            if not 0 < enc < field.size:
                raise UsageError(f"root encoding {enc} outside {field.descriptor()}")
            factor = x_plus(field, enc)
        else:
            coeffs = [_xi_int(c) for c in m.group("coeffs").split(",") if c.strip()]
            if not coeffs or coeffs[-1] != 1:
                raise UsageError("bracketed polynomial must be monic ([...,1])")
            if any(not 0 <= c < field.size for c in coeffs):
                raise UsageError("coefficient encoding outside the field")
            factor = MonicPoly(field, tuple(coeffs[:-1]))
        exp = _xi_int(m.group("exp") or "1")
        if out.degree + factor.degree * exp > d:
            raise UsageError(
                f"--xi has degree at least {out.degree + factor.degree * exp}, "
                f"expected d = {d}"
            )
        out = out * factor**exp
        pos = m.end()
    if out.degree == 0:
        raise UsageError("--xi parsed to the empty product")
    return out


# --- report plumbing --------------------------------------------------------


def _stringify(obj):
    """Recursively render big integers as decimal strings for JSON, in full."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        try:
            return str(obj)
        except ValueError:  # past str()'s 4,300-digit limit; Decimal has none
            from decimal import Decimal  # loaded only for such an integer
            return str(Decimal(obj))
    if isinstance(obj, dict):
        return {str(k): _stringify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [_stringify(v) for v in items]
    return obj


def emit(report: dict, args) -> None:
    envelope = {
        "tool": "e1forge",
        "version": __version__,
        "field_tables": "conway-2",
        "command": args.command,
        "report": _stringify(report),
    }
    if args.format == "json":
        payload = json.dumps(envelope, indent=2, sort_keys=True) + "\n"
    else:
        lines = ["key\tvalue"]
        def flatten(prefix, value):
            if isinstance(value, dict):
                for k in sorted(value):
                    flatten(f"{prefix}.{k}" if prefix else k, value[k])
            elif isinstance(value, list):
                for i, v in enumerate(value):
                    flatten(f"{prefix}[{i}]", v)
            else:
                lines.append(f"{prefix}\t{value}")
        flatten("", envelope)
        payload = "\n".join(lines) + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            raise UsageError(f"cannot write --output: {exc}")
    else:
        sys.stdout.write(payload)


def _check_output(path: str) -> None:
    """Refuse an --output that cannot be written before any work starts;
    emit still turns a write that fails later into a usage error."""
    target = path if os.path.exists(path) else os.path.dirname(path) or "."
    if os.path.isdir(path) or not os.access(target, os.W_OK):
        raise UsageError(f"cannot write --output: {path}")


# --- subcommands --------------------------------------------------------------


def cmd_classify(args) -> int:
    epsilon = args.epsilon
    field = field_for(args.q, epsilon)
    xi = parse_xi(args.xi, field, args.d)
    try:
        cls = semisimple.semisimple_class(epsilon, args.d, args.q, xi)
    except semisimple.SemisimpleError as exc:
        raise UsageError(str(exc))
    shape = semisimple.centralizer_shape(cls)
    report = {
        "epsilon": epsilon,
        "d": args.d,
        "q": args.q,
        "xi": format_poly(xi),
        "shape": [[kind, m, Q] for kind, m, Q in shape.factors],
        "order": shape.order,
        "odd_index": semisimple.index_odd_part(cls),
        "real": semisimple.is_real_class(cls),
        "projective_real": semisimple.pgl_is_real(cls),
        "min_character_degree": semisimple.min_character_degree(cls),
    }
    try:
        case = semisimple.classify_gudprep(cls)
        report["cases"] = sorted(case.cases)
        report["witnesses"] = case.witnesses
    except semisimple.SemisimpleError as exc:
        report["cases"] = None
        report["cases_unavailable"] = str(exc)
    emit(report, args)
    return 0


def cmd_certify(args) -> int:
    # an empty --expr, --id or --range is an error, not an absent option
    if args.expr is not None:
        if args.registry is not None:
            raise UsageError("--registry applies only to registry entries, not --expr")
        try:
            lhs, rel, rhs = re.split(r"\s*(<=|>=|<|>)\s*", args.expr, maxsplit=1)
        except ValueError:
            raise UsageError("--expr must look like 'lhs REL rhs'")
        start, end = bounds.parse_range("1+" if args.range is None else args.range)
        certs = [bounds.certify("adhoc", lhs, rel, rhs, start, end)]
    elif args.range is not None:
        raise UsageError("--range applies only to --expr")
    else:
        try:
            entries = bounds.load_registry(args.registry)
        except UnicodeDecodeError as exc:
            raise UsageError(f"registry is not UTF-8 text: {exc}")
        except (OSError, bounds.BoundsError) as exc:
            raise UsageError(str(exc))
        if args.id is not None:
            entries = [e for e in entries if e[0] == args.id]
            if not entries:
                raise UsageError(f"no registry entry with id {args.id!r}")
        certs = [bounds.certify(*e) for e in entries]
    results = []
    ok = True
    for c in certs:
        replayed = bounds.replay_witness(c) if c.range_end is None and c.ok else None
        ok = ok and c.ok and replayed is not False
        results.append(
            {
                "id": c.id,
                "lhs": c.lhs,
                "rel": c.rel,
                "rhs": c.rhs,
                "range": f"{c.range_start}.."
                + (str(c.range_end) if c.range_end is not None else ""),
                "status": c.status,
                "witness": c.witness,
                "replayed": replayed,
            }
        )
    emit({"entries": results, "ok": ok}, args)
    return 0 if ok else CHECK_FAILURE


def cmd_oracle_verify(args) -> int:
    # imported here, not at the top: the oracle loads numpy, and no other
    # subcommand needs either
    from . import oracle

    try:
        report = oracle.verify_sweep(
            args.group,
            args.d,
            args.q,
            budget=_budget(args),
            seed=args.seed,
        )
    except oracle.OracleConfigError as exc:
        raise UsageError(str(exc))
    except oracle.OracleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CHECK_FAILURE
    elapsed = report.pop("elapsed", None)
    emit(report, args)
    if elapsed is not None:
        print(f"elapsed: {elapsed}s", file=sys.stderr)
    return 0 if report["ok"] else CHECK_FAILURE


def cmd_auto_order(args) -> int:
    try:
        entries = [1] * args.d
        if args.t is not None:  # an empty --t is an error, not an absent option
            entries = [int(x) for x in args.t.split(",")]
    except ValueError:
        raise UsageError(f"--t must be comma-separated integers, got {args.t!r}")
    word = autos.make_word(
        args.d, args.q, args.epsilon, entries, args.graph_exp, args.field_exp
    )
    order = autos.auto_order(word)
    f, delta = word.field.f, word.field.delta
    t_order = autos.torus_element_order(word.t, args.q, args.epsilon)
    report = {
        "d": args.d,
        "q": args.q,
        "epsilon": args.epsilon,
        "t": list(word.t),
        "graph_exp": word.graph_exp,
        "field_exp": word.field_exp,
        "order": order,
        "torus_element_order": t_order,
        "mu_order": word.mu_order(),
        "divides": {
            "delta_f": (delta * f) % order == 0,
            "3_delta_f": (3 * delta * f) % order == 0,
            "2f": (2 * f) % order == 0,
        },
    }
    emit(report, args)
    return 0


def cmd_sweep(args) -> int:
    """Classifier completeness over all real classes; for GU, also the
    eigenspace dimension bound, a statement about real unitary classes."""
    epsilon = args.epsilon
    field = field_for(args.q, epsilon)
    try:
        semisimple.check_classifier_group(epsilon, args.d, args.q)
    except semisimple.SemisimpleError as exc:
        raise UsageError(str(exc))
    total = 0
    nonempty = 0
    bound_failures = 0
    histogram: dict[str, int] = {}
    failures = []
    stream = enumerate_charpolys(
        args.d,
        field,
        real=True,
        unitary=(epsilon == -1),
        exclude_identity=True,
        budget=_budget(args),
    )
    for fac in stream:
        cls = semisimple.SemisimpleClass(epsilon, args.d, args.q, fac)
        total += 1
        factor = semisimple.eigenspace_bound_failure(cls) if epsilon == -1 else None
        if factor is not None:
            bound_failures += 1
            failures.append(
                {
                    "xi": format_poly(cls.charpoly),
                    "d1": cls.d1,
                    "factor": format_poly(factor),
                    "error": "eigenspace dimension bound d >= d1 + 2mk fails",
                }
            )
        try:
            case = semisimple.classify_gudprep(cls)
        except semisimple.SemisimpleError as exc:
            failures.append({"xi": format_poly(cls.charpoly), "error": str(exc)})
            continue
        nonempty += 1
        for name in sorted(case.cases):
            histogram[name] = histogram.get(name, 0) + 1
    ok = total > 0 and not failures
    emit(
        {
            "epsilon": epsilon,
            "d": args.d,
            "q": args.q,
            "classes": total,
            "nonempty_case_sets": nonempty,
            "dimension_bound_holds": total - bound_failures if epsilon == -1 else None,
            "case_histogram": histogram,
            "failures": failures,
            "ok": ok,
        },
        args,
    )
    return 0 if ok else CHECK_FAILURE


# --- argument parsing -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="e1forge",
        description="Exact verification of semisimple class data in even "
        "characteristic, with brute-force oracles and inequality certificates.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "tsv"), default="json")
    common.add_argument("--output", help="write the report to a file")
    group = argparse.ArgumentParser(add_help=False)
    group.add_argument("--epsilon", type=int, choices=(1, -1), required=True)
    group.add_argument("--d", type=_positive_int, required=True)
    group.add_argument("--q", type=int, required=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "classify", help="centralizer shape and case analysis", parents=[common, group]
    )
    p.add_argument("--xi", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser(
        "certify", help="verify inequality registry entries", parents=[common]
    )
    # a bare certify, like --all, certifies the whole registry
    which = p.add_mutually_exclusive_group()
    which.add_argument("--all", action="store_true")
    which.add_argument("--id", help="certify a single registry entry")
    which.add_argument("--expr", help="ad-hoc inequality 'lhs REL rhs'")
    p.add_argument("--registry", help="path to a registry file")
    p.add_argument("--range", help="f-range, e.g. 7..19 or 21+")
    p.set_defaults(func=cmd_certify)

    po = sub.add_parser("oracle", help="brute-force oracle commands")
    osub = po.add_subparsers(dest="oracle_command", required=True)
    p = osub.add_parser(
        "verify", help="formula-vs-enumeration sweep", parents=[common]
    )
    p.add_argument("--group", choices=("GL", "GU"), required=True)
    p.add_argument("--d", type=_positive_int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--budget", type=_positive_int)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_oracle_verify)

    p = sub.add_parser(
        "auto-order", help="order of a torus automorphism word", parents=[common, group]
    )
    p.add_argument("--t", help="comma-separated diagonal encodings")
    p.add_argument("--graph-exp", type=int, default=0)
    p.add_argument("--field-exp", type=int, default=0)
    p.set_defaults(func=cmd_auto_order)

    p = sub.add_parser(
        "sweep", help="classifier completeness sweep", parents=[common, group]
    )
    p.add_argument("--budget", type=_positive_int)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        if getattr(args, "output", None):
            _check_output(args.output)
        return args.func(args)
    except (
        UsageError,
        FieldError,
        PolyError,
        bounds.BoundsError,
        autos.AutoError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except MemoryError:
        print("error: out of memory; lower --budget or E1FORGE_BUDGET", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
