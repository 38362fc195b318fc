"""Command-line front end: every verification as a reproducible report.

Every subcommand prints one JSON report on stdout, with a stable key order.

Exit status: 0 when every verdict passes (or is not applicable), 1 on a
mathematical verdict failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction

from . import __version__
from . import arith, orbital, qseries, traceformula
from .padics import valp_fraction
from .primes import is_prime, primes_upto, smallest_nonresidue

SCHEMA_VERSION = 3

# Largest p * truncation `hecke` accepts: delta is built through q^(p*T),
# which takes seconds at this ceiling.
HECKE_MAX_INPUT_TRUNCATION = 100_000

# Largest cutoffs `lseries` and `frobenius` accept: their prime sieves hold
# one byte per integer up to the cutoff, and each check takes seconds there.
LSERIES_MAX_CUTOFF = 10_000_000
FROBENIUS_MAX_PMAX = 1_000_000

# Largest `theta --truncation`: each term costs about 0.5 us, and past
# n = 16 every term underflows to 0 at t = 1.
THETA_MAX_TRUNCATION = 1_000_000

# Largest val(b) that `fl-verify` and `sweep` accept, and twice the largest
# `--window`: `fl-verify` at val(b) = 100 takes 0.04-0.05 s in process (p = 3
# and p = 1009, Python 3.11 on a 2-CPU host).
FL_MAX_VAL_B = 100

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"


def _jsonable(value):
    """Make values JSON-safe and deterministic (inf -> "inf", exact types
    -> strings, tuples -> lists)."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _resolve_delta(p: int, delta: str) -> Fraction:
    if delta == "auto":
        return Fraction(smallest_nonresidue(p))
    return _parse_fraction(delta)


def _check_cutoff(flag: str, value: int, low: int, high=math.inf):
    """A usage error unless low <= value <= high."""
    if value < low:
        raise UsageError(f"{flag} {value} is below {low}")
    if value > high:
        raise UsageError(f"{flag} {value} exceeds {high}")


def _check_finite(flag: str, value: float):
    """A usage error unless value is a finite float (not nan or +-inf)."""
    if not math.isfinite(value):
        raise UsageError(f"{flag} {value} is not a finite number")


def _bounded_verdict(gap: float, bound: float, size: float) -> str:
    """The verdict of a float comparison against a proven bound.

    A correct computation never puts `gap` above `bound`, so that fails.  A
    bound at least `size`, the larger of the two compared values, would
    still pass with either value replaced by 0: such a check cannot fail
    and is not applicable.
    """
    if not gap <= bound:
        return FAIL
    return NOT_APPLICABLE if bound >= size else PASS


def _int_list(text: str) -> list:
    text = text.strip()
    if not text:
        return []
    return [int(t) for t in text.replace(",", " ").split()]


# -- subcommand implementations ------------------------------------------------


def _status(verdict) -> str:
    """The verdict string for an `OrbitalReport.verdict` (None, True, False)."""
    if verdict is None:
        return NOT_APPLICABLE
    return PASS if verdict else FAIL


def cmd_fl_verify(args) -> tuple:
    if args.p == 2 or not is_prime(args.p):
        raise UsageError(f"p must be an odd prime, got {args.p}")
    if args.b:  # b = 0 is refused by verify_fundamental_lemma
        _check_cutoff("val(b)", valp_fraction(args.b, args.p), -math.inf, FL_MAX_VAL_B)
    window = None
    if args.window != "auto":
        try:
            window = int(args.window)
        except ValueError:
            msg = f"--window must be auto or an integer, got {args.window!r}"
            raise UsageError(msg) from None
        _check_cutoff("--window", window, -math.inf, FL_MAX_VAL_B // 2)
    delta = _resolve_delta(args.p, args.delta)
    report = orbital.verify_fundamental_lemma(
        args.p, args.a, args.b, delta, kappa=args.kappa, window=window
    )
    params = {
        "p": args.p,
        "a": str(Fraction(args.a)),
        "b": str(Fraction(args.b)),
        "delta": str(delta),
        "kappa": args.kappa,
        "window": args.window,
        "saturate": True,  # the recount always runs; kept until the next schema
    }
    results = {
        "regime": report.regime,
        "window": report.window,
        "counts_by_grading": report.counts,
        "untwisted_total": report.untwisted,
        "twisted_total": report.twisted,
        "saturated": report.saturated,
        "closed_form": report.closed_form,
        "expected": report.expected,
        "val_a": report.val_a,
        "val_b": report.val_b,
    }
    return params, results, _status(report.verdict)


def _sweep_cell(p, vb, kappa):
    if vb <= 0:
        return {
            "p": p,
            "val_b": vb,
            "kappa": kappa,
            "status": NOT_APPLICABLE,
        }
    delta = smallest_nonresidue(p)
    report = orbital.verify_fundamental_lemma(p, 1, p**vb, delta, kappa=kappa)
    return {
        "p": p,
        "val_b": vb,
        "kappa": kappa,
        "delta": delta,
        "brute_force": report.twisted,
        "closed_form": report.closed_form,
        "untwisted": report.untwisted,
        "saturated": report.saturated,
        "status": _status(report.verdict),
    }


def cmd_sweep(args) -> tuple:
    for p in args.p_list:
        if p == 2 or not is_prime(p):
            raise UsageError(f"p must be an odd prime, got {p}")
    for vb in args.vb_list:
        _check_cutoff("--vb-list", vb, -math.inf, FL_MAX_VAL_B)
    rows = [_sweep_cell(p, vb, args.kappa) for p in args.p_list for vb in args.vb_list]
    failed = [r for r in rows if r["status"] == FAIL]
    results = {"rows": rows, "cells": len(rows), "failures": len(failed)}
    params = {"p_list": args.p_list, "vb_list": args.vb_list, "kappa": args.kappa}
    if failed:
        return params, results, FAIL
    # a grid without a cell of val(b) >= 1 checks nothing
    checked = any(r["status"] == PASS for r in rows)
    return params, results, PASS if checked else NOT_APPLICABLE


def cmd_hecke(args) -> tuple:
    if not is_prime(args.p):
        raise UsageError(f"p must be prime, got {args.p}")
    # at depth 1 the check reads a_p = a_p * a_1 and cannot fail
    _check_cutoff("--truncation", args.truncation, 2)
    if args.p * args.truncation > HECKE_MAX_INPUT_TRUNCATION:
        raise UsageError(
            f"p * truncation = {args.p * args.truncation} exceeds "
            f"{HECKE_MAX_INPUT_TRUNCATION}"
        )
    f = qseries.delta(args.p * args.truncation)
    ok, eigenvalue = qseries.eigencheck(f, args.p, depth=args.truncation)
    results = {
        "eigenvalue": eigenvalue,
        "is_eigenform": ok,
        "depth": args.truncation,
        "input_truncation": f.truncation,
    }
    params = {"p": args.p, "truncation": args.truncation}
    return params, results, PASS if ok else FAIL


def cmd_theta(args) -> tuple:
    _check_finite("--t", args.t)
    if args.t <= 0:
        raise UsageError("t must be positive")
    _check_cutoff("--truncation", args.truncation, 1, THETA_MAX_TRUNCATION)
    residual = qseries.theta_functional_equation_residual(args.t, args.truncation)
    bound = qseries.theta_residual_bound(args.t, args.truncation)
    # each side is at least its n = 0 term: 1 on the left, t^(-1/2) on the right
    size = max(1.0, 1 / math.sqrt(args.t))
    results = {"residual": residual, "bound": bound, "terms": args.truncation}
    params = {"t": args.t, "truncation": args.truncation}
    return params, results, _bounded_verdict(residual, bound, size)


def _resolve_character(spec: str) -> arith.DirichletCharacter:
    if spec == "trivial":
        return arith.DirichletCharacter.trivial()
    if spec == "mod4":
        return arith.DirichletCharacter.mod_four()
    if spec == "mod8":
        return arith.DirichletCharacter.mod_eight()
    if spec.startswith("legendre:"):
        return arith.DirichletCharacter.legendre(int(spec.split(":", 1)[1]))
    raise UsageError(
        f"unknown character {spec!r} (use trivial, mod4, mod8 or legendre:<q>)"
    )


def cmd_lseries(args) -> tuple:
    chi = _resolve_character(args.character)
    _check_finite("--s", args.s)
    if args.s <= 1:
        raise UsageError("s must be greater than 1")
    _check_cutoff("--nmax", args.nmax, 1, LSERIES_MAX_CUTOFF)
    _check_cutoff("--pmax", args.pmax, 2, LSERIES_MAX_CUTOFF)
    partial_sum = arith.dirichlet_sum_partial(chi, args.s, args.nmax)
    partial_product = arith.euler_product_partial(chi, args.s, args.pmax)
    gap = abs(partial_sum - partial_product)
    bound = arith.lseries_gap_bound(args.s, args.nmax, args.pmax, partial_product)
    size = max(abs(partial_sum), abs(partial_product))
    results = {
        "partial_sum": partial_sum,
        "partial_product": partial_product,
        "gap": gap,
        "bound": bound,
    }
    params = {
        "character": args.character,
        "s": args.s,
        "nmax": args.nmax,
        "pmax": args.pmax,
    }
    return params, results, _bounded_verdict(gap, bound, size)


def _default_character_for(d: int) -> str | None:
    if d == -1:
        return "mod4"
    if d == 2:
        return "mod8"
    if d > 2 and d % 4 == 1 and is_prime(d):
        return f"legendre:{d}"
    return None


def cmd_frobenius(args) -> tuple:
    spec = args.character or _default_character_for(args.d)
    if spec is None:
        raise UsageError(
            f"no built-in character for d={args.d}; pass --character explicitly"
        )
    _check_cutoff("--pmax", args.pmax, 2, FROBENIUS_MAX_PMAX)
    chi = _resolve_character(spec)
    mismatches = arith.reciprocity_check(args.d, chi, args.pmax)
    tallies = {"split": 0, "inert": 0, "ramified": 0}
    for p in primes_upto(args.pmax):
        tallies[arith.frobenius_quadratic(args.d, p).value] += 1
    results = {
        "character": spec,
        "mismatches": [list(m) for m in mismatches],
        "mismatch_count": len(mismatches),
        "tallies": tallies,
    }
    params = {"d": args.d, "pmax": args.pmax, "character": spec}
    return params, results, FAIL if mismatches else PASS


def _parse_generators(text: str, degree: int) -> list:
    """Permutations from ';'-separated cycle strings, e.g. "(1 2);(1 2 3)"."""
    return [
        traceformula.parse_cycles(chunk, degree)
        for chunk in text.split(";")
        if chunk.strip()
    ]


def _resolve_group(spec: str, degree: int | None) -> traceformula.FiniteGroupTable:
    families = {
        "C": traceformula.FiniteGroupTable.cyclic,
        "S": traceformula.FiniteGroupTable.symmetric,
        "A": traceformula.FiniteGroupTable.alternating,
        "D": traceformula.FiniteGroupTable.dihedral,
    }
    if spec[:1].upper() in families and spec[1:].isdigit():
        return families[spec[:1].upper()](int(spec[1:]))
    if degree is None:
        raise UsageError("generator-style --group needs --degree")
    gens = _parse_generators(spec, degree)
    return traceformula.FiniteGroupTable.from_generators(degree, gens, name=spec)


def cmd_trace(args) -> tuple:
    rows = []
    if args.group == "catalog":
        pairs = []
        for name, group in traceformula.catalog():
            for sub in group.all_subgroups():
                pairs.append((group, sub))
    else:
        group = _resolve_group(args.group, args.degree)
        if args.subgroup is not None:
            gens = _parse_generators(args.subgroup, group.degree)
            pairs = [(group, group.subgroup_closure(gens))]
        else:
            pairs = [(group, sub) for sub in group.all_subgroups()]
    failures = 0
    for group, sub in pairs:
        ok, witness = traceformula.verify_trace_formula(group, sub)
        if not ok:
            failures += 1
        rows.append(
            {
                "group": group.name,
                "group_order": len(group),
                "subgroup_order": len(sub),
                "index": len(group) // len(sub),
                "status": PASS if ok else FAIL,
            }
        )
    results = {"rows": rows, "pairs": len(rows), "failures": failures}
    params = {
        "group": args.group,
        "subgroup": args.subgroup,
        "degree": args.degree,
    }
    return params, results, FAIL if failures else PASS


# -- argument parsing -----------------------------------------------------------


class UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hensel",
        description="Exact verification suite: lattice counts, q-expansions, "
        "L-factors, reciprocity, and the finite-group trace identity.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    fl = sub.add_parser("fl-verify", help="twisted count against the transfer constant")
    fl.add_argument("--p", type=int, required=True)
    fl.add_argument("--a", type=_parse_fraction, required=True)
    fl.add_argument("--b", type=_parse_fraction, required=True)
    fl.add_argument("--delta", default="auto", help="non-square unit (default auto)")
    fl.add_argument("--kappa", type=int, choices=(0, 1), default=1)
    fl.add_argument("--window", default="auto", help="window radius (default auto)")
    fl.set_defaults(func=cmd_fl_verify)

    sw = sub.add_parser("sweep", help="closed form vs brute force over a grid")
    sw.add_argument("--p-list", type=_int_list, default=[])
    sw.add_argument("--vb-list", type=_int_list, default=[])
    sw.add_argument("--kappa", type=int, choices=(0, 1), default=1)
    sw.set_defaults(func=cmd_sweep)

    hk = sub.add_parser("hecke", help="eigenform check for the weight-12 cusp form")
    hk.add_argument("--p", type=int, required=True)
    hk.add_argument("--truncation", type=int, default=64)
    hk.set_defaults(func=cmd_hecke)

    th = sub.add_parser("theta", help="theta functional-equation residual")
    th.add_argument("--t", type=float, required=True)
    th.add_argument("--truncation", type=int, default=50)
    th.set_defaults(func=cmd_theta)

    ls = sub.add_parser("lseries", help="partial sum vs partial product")
    ls.add_argument("--character", default="trivial")
    ls.add_argument("--s", type=float, default=2.0)
    ls.add_argument("--nmax", type=int, default=100000)
    ls.add_argument("--pmax", type=int, default=10000)
    ls.set_defaults(func=cmd_lseries)

    fr = sub.add_parser("frobenius", help="splitting behavior vs a character")
    fr.add_argument("--d", type=int, required=True)
    fr.add_argument("--pmax", type=int, default=1000)
    fr.add_argument("--character", default=None)
    fr.set_defaults(func=cmd_frobenius)

    tr = sub.add_parser("trace", help="finite-group trace identity")
    tr.add_argument("--group", default="catalog")
    tr.add_argument("--subgroup", default=None, help="semicolon-separated cycles")
    tr.add_argument("--degree", type=int, default=None)
    tr.set_defaults(func=cmd_trace)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        params, results, verdict = args.func(args)
    except (UsageError, ValueError, ZeroDivisionError) as exc:
        print(f"hensel: error: {exc}", file=sys.stderr)
        return 2
    payload = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "subcommand": args.subcommand,
        "params": params,
        "results": results,
        "verdict": verdict,
        "elapsed_seconds": round(time.perf_counter() - start, 6),
    }
    print(json.dumps(_jsonable(payload), sort_keys=True, indent=2))
    return 1 if verdict == FAIL else 0


if __name__ == "__main__":
    sys.exit(main())
