"""Judging payloads against references computed apart from the program.

Nothing here imports `hensel`.  Each reference is a closed form, a known
constant, or a small independent computation:

* fl-verify: the twisted total (-p)^val(b) and the untwisted total
  1 + (p+1)(p^val(b) - 1)/(p - 1) in the unit regime, zeros in the vanishing
  regime;
* hecke: tau(p) from (E4^3 - E6^2)/1728, also checked against
  tau(p) = 1 + p^11 (mod 691);
* trace: the known number of subgroups of each group;
* frobenius: a recount that searches for a square root of d mod p;
* lseries: the partial sum against the exact L-value and its tail bound.

The payload fields `scan_method` and `window` are never judged.
"""

from __future__ import annotations

import json
import math

# statuses of one check
OK = "ok"
ERROR = "error"  # no payload: crash, usage error, timeout
WRONG = "wrong"  # a payload that disagrees with the reference

KNOWN_SUBGROUPS = {("S", 4): 30, ("A", 4): 10}
GROUP_ORDERS = {"A5": 60, "S5": 120}

CATALAN = 0.915965594177219015054603514932384110774
L_VALUES_AT_2 = {
    "trivial": math.pi**2 / 6,
    "mod4": CATALAN,
    "mod8": math.pi**2 / (8 * math.sqrt(2)),
    "legendre:5": 4 * math.pi**2 / (25 * math.sqrt(5)),
}


def _divisors(n: int) -> list:
    return [d for d in range(1, n + 1) if n % d == 0]


def subgroup_count(family: str, n: int) -> int:
    """Number of subgroups: d(n) for C_n, d(n) + sigma(n) for D_n."""
    if family == "C":
        return len(_divisors(n))
    if family == "D":
        return len(_divisors(n)) + sum(_divisors(n))
    return KNOWN_SUBGROUPS[(family, n)]


def _group_order(family: str, n: int) -> int:
    return {"C": n, "D": 2 * n, "S": math.factorial(n), "A": math.factorial(n) // 2}[family]


def tau_table(n: int) -> list:
    """tau(0..n) from Delta = (E4^3 - E6^2) / 1728."""

    def sigma(k, m):
        return sum(d**k for d in _divisors(m))

    def mul(x, y):
        return [sum(x[i] * y[k - i] for i in range(k + 1)) for k in range(n + 1)]

    e4 = [1] + [240 * sigma(3, m) for m in range(1, n + 1)]
    e6 = [1] + [-504 * sigma(5, m) for m in range(1, n + 1)]
    diff = [u - v for u, v in zip(mul(mul(e4, e4), e4), mul(e6, e6))]
    if any(c % 1728 for c in diff):
        raise AssertionError("E4^3 - E6^2 is not divisible by 1728")
    return [c // 1728 for c in diff]


TAU = tau_table(13)


def _primes_upto(n: int) -> list:
    return [q for q in range(2, n + 1) if all(q % f for f in range(2, math.isqrt(q) + 1))]


def frobenius_tallies(d: int, pmax: int) -> dict:
    """Split/inert/ramified counts for Q(sqrt d), d in {-1, 2}: 2 is the only
    ramified prime, and an odd p splits exactly when d has a square root mod p."""
    tallies = {"split": 0, "inert": 0, "ramified": 0}
    for p in _primes_upto(pmax):
        if p == 2:
            tallies["ramified"] += 1
        elif any((x * x - d) % p == 0 for x in range(1, p)):
            tallies["split"] += 1
        else:
            tallies["inert"] += 1
    return tallies


# -- per-subcommand judges: each returns a list of disagreements ---------------


def _fl(e: dict, pl: dict) -> list:
    r = pl["results"]
    p, vb = e["p"], e["val_b"]
    counts = r["counts_by_grading"]
    c0, c1 = counts["0"], counts["1"]
    if e["val_a"] == 0:
        untwisted = 1 + (p + 1) * (p**vb - 1) // (p - 1)
        signed = (-p) ** vb
        twisted = signed if e["kappa"] == 1 else untwisted
        want = {"counts sum": (c0 + c1, untwisted), "counts difference": (c0 - c1, signed),
                "untwisted_total": (r["untwisted_total"], untwisted),
                "twisted_total": (r["twisted_total"], twisted),
                "saturated": (r["saturated"], True)}
    else:
        want = {"counts": ((c0, c1), (0, 0)),
                "untwisted_total": (r["untwisted_total"], 0),
                "twisted_total": (r["twisted_total"], 0)}
    return [f"{k}: got {got!r}, want {ref!r}" for k, (got, ref) in want.items() if got != ref]


def _hecke(e: dict, pl: dict) -> list:
    r = pl["results"]
    p, lam = e["p"], r["eigenvalue"]
    out = []
    if lam != TAU[p]:
        out.append(f"eigenvalue {lam} != tau({p}) = {TAU[p]}")
    if (lam - 1 - p**11) % 691:
        out.append(f"eigenvalue {lam} breaks tau(p) = 1 + p^11 (mod 691)")
    if r["is_eigenform"] is not True:
        out.append("is_eigenform is not true")
    return out


def _trace(e: dict, pl: dict) -> list:
    r = pl["results"]
    rows = r["rows"]
    out = []
    if "subgroup_order" in e:
        want_pairs, order = 1, GROUP_ORDERS[e["family"]]
    else:
        want_pairs = subgroup_count(e["family"], e["n"])
        order = _group_order(e["family"], e["n"])
    if len(rows) != want_pairs or r["pairs"] != want_pairs:
        out.append(f"{len(rows)} rows / pairs {r['pairs']}, want {want_pairs}")
    if r["failures"] != 0:
        out.append(f"failures = {r['failures']}")
    for row in rows:
        if row["status"] != "pass":
            out.append(f"row {row} did not pass")
        if row["group_order"] != order or row["index"] * row["subgroup_order"] != order:
            out.append(f"row {row}: orders do not match a group of order {order}")
        if "subgroup_order" in e and row["subgroup_order"] != e["subgroup_order"]:
            out.append(f"row {row}: subgroup order, want {e['subgroup_order']}")
    return out


def _frobenius(e: dict, pl: dict) -> list:
    r = pl["results"]
    out = []
    if r["mismatch_count"] != 0 or r["mismatches"]:
        out.append(f"mismatches {r['mismatches']}")
    want = frobenius_tallies(e["d"], e["pmax"])
    if r["tallies"] != want:
        out.append(f"tallies {r['tallies']}, want {want}")
    return out


def _lseries(e: dict, pl: dict) -> list:
    s = pl["results"]["partial_sum"]
    value = L_VALUES_AT_2[e["character"]]
    # |sum_{n > N} chi(n) n^-2| <= sum_{n > N} n^-2 < 1/N
    bound = 1 / e["nmax"]
    if not abs(s - value) <= bound:
        return [f"partial sum {s} is {abs(s - value):.3g} from {value}, bound {bound:.3g}"]
    return []


JUDGES = {"fl-verify": _fl, "hecke": _hecke, "trace": _trace,
          "frobenius": _frobenius, "lseries": _lseries}


def judge_payload(check, returncode: int, payload) -> tuple:
    """(status, problems) for a parsed payload (or None when there is none)."""
    if payload is None:
        return ERROR, [f"no payload (exit status {returncode})"]
    problems = []
    if returncode != 0:
        problems.append(f"exit status {returncode}")
    if payload.get("subcommand") != check.kind:
        problems.append(f"subcommand {payload.get('subcommand')!r}")
    if payload.get("verdict") != "pass":
        problems.append(f"verdict {payload.get('verdict')!r}")
    try:
        problems += JUDGES[check.kind](check.expect, payload)
    except (KeyError, TypeError, IndexError) as exc:
        problems.append(f"malformed payload: {exc!r}")
    return (WRONG if problems else OK), problems


def judge(check, returncode: int, stdout: str) -> tuple:
    """(status, problems) for one check from its exit status and stdout."""
    try:
        payload = json.loads(stdout)
    except ValueError:
        payload = None
    if not isinstance(payload, dict):
        payload = None
    return judge_payload(check, returncode, payload)
