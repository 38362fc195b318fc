"""Seeded inputs for the three workloads.

A workload is a fixed list of slots, and a round fills every slot once with
fresh values drawn from the seed.  The slot list fixes what a round costs:
the seed draws only what the cost depends on little or not at all (units,
non-square deltas, relabelings of points, which small subgroup of A5 or S5,
a little jitter), so every round of every run does the same kind and about
the same amount of work.  No input repeats within a run.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("fl-small-p", "fl-large-p", "algebra")

# (p, val a, val b).  val a = 0 is the unit regime; val a = 1 or -1 with
# val b >= 1 is the vanishing regime.  The cost of a cell follows p and val b
# (the window size), not the units, so the seed only draws the units.
# Ranked by cost, a round has three light cells ((13,0,3), (3,0,1),
# (7,0,1)), four cells of about the same cost, 1.6 to 1.9 s ((3,0,3),
# (5,-1,1), (3,0,2), (3,1,2)), and two heavy ones ((11,0,1), (5,0,1)).  The
# median latency thus sits inside that middle group, where process start is
# a small share of a check, instead of between unlike checks.  Left out:
# (5, 0, 2) and (13, 0, 1), 2.5 s and 3.8 s, which would make a round too
# long to repeat within one run.
FL_SMALL_CELLS = (
    (13, 0, 3), (3, 0, 1), (7, 0, 1),
    (3, 0, 3), (5, -1, 1), (3, 0, 2),
    (3, 1, 2), (11, 0, 1), (5, 0, 1),
)
FL_LARGE_CELLS = (
    (101, 0, 1), (101, 0, 2),
    (211, 0, 1), (211, 0, 2),
    (401, 0, 1), (401, 0, 2),
    (1009, 0, 1), (1009, 0, 2),
    (101, 1, 2), (211, 1, 2), (503, 1, 1),
)

# The algebra checks of a round, ranked by cost, fall into three groups:
# seven light ones, process start and little more (frobenius, lseries, the
# A4, C12 and A5-subgroup traces); five of about 0.3 to 0.45 s (hecke at p*T
# near 1800, 2000 and 2200, the D8 and S5-subgroup traces); and seven heavy
# ones, 0.6 to 1.6 s (hecke at p*T near 3000, 4500 and 6000, the S4, D12,
# C24 and D14 traces).  So whatever the number of rounds, the median latency
# falls inside the middle group, instead of between unlike checks.
# hecke targets for p*T: the cost of delta(p*T) grows like (p*T)^1.5
HECKE_TARGETS = (1800, 2000, 2200, 3000, 4500, 6000)
HECKE_PRIMES = (2, 3, 5, 7, 11, 13)

# trace checks on whole groups, (family, n).  Each is given by generators on
# randomly chosen points, so each check is a distinct group: S4 and A4 sit on
# 4 of SMALL_GROUP_DEGREE points (70 choices each), the others are
# relabelled.
TRACE_GROUPS = (("A", 4), ("C", 12), ("D", 8),
                ("S", 4), ("D", 12), ("C", 24), ("D", 14))
SMALL_GROUP_DEGREE = 8
# trace checks on one subgroup of the named group A5 or S5, one of each per
# round.  A slot draws, without replacement, one of the subgroups whose order
# is in SUBGROUP_ORDERS: 46 of A5 and 106 of S5.  The check of one subgroup
# visits every element of the group, so these small subgroups differ in cost
# by about a tenth of a second.  The smallest pool of the workload, 42 draws
# per hecke slot, allows 42 algebra rounds in a run.
SUBGROUP_SLOTS = ("A5", "S5")
SUBGROUP_ORDERS = range(2, 7)
# two lseries checks per round; the four characters take turns
LSERIES_CHARACTERS = ("trivial", "mod4", "mod8", "legendre:5")
# arith.frobenius_quadratic misreports p = 2 for d = 1 (mod 4), so only
# d = -1 and d = 2 are used.
FROBENIUS_DS = (-1, 2)


@dataclass(frozen=True)
class Check:
    """One CLI check: arguments after `python -m hensel`, plus what the
    reference needs to judge its payload."""

    kind: str
    argv: tuple
    expect: dict


def legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _unit(rng: random.Random, p: int) -> Fraction:
    while True:
        n, d = rng.randint(1, 9999), rng.randint(1, 99)
        if n % p and d % p:
            return Fraction(n, d)


def _nonsquare(rng: random.Random, p: int) -> int:
    while True:
        d = rng.randint(2, 999)
        if legendre(d, p) == -1:
            return d


def make_fl(rng, p, va, vb, kappa) -> Check:
    a = _unit(rng, p) * Fraction(p) ** va
    b = _unit(rng, p) * Fraction(p) ** vb
    delta = _nonsquare(rng, p)
    argv = ("fl-verify", "--p", str(p), "--a", str(a), "--b", str(b),
            "--delta", str(delta), "--kappa", str(kappa))
    return Check("fl-verify", argv, {"p": p, "val_a": va, "val_b": vb, "kappa": kappa})


def make_hecke(rng, target) -> Check:
    p = rng.choice(HECKE_PRIMES)
    t = max(1, round(target / p) + rng.randint(-3, 3))
    argv = ("hecke", "--p", str(p), "--truncation", str(t))
    return Check("hecke", argv, {"p": p, "truncation": t})


# -- permutations, 1-based images on points 1..n -------------------------------


def _cycles(perm: dict) -> str:
    """1-based cycle notation of a permutation given as a point -> image map."""
    seen, out = set(), []
    for start in sorted(perm):
        if start in seen or perm[start] == start:
            continue
        cyc, x = [], start
        while x not in seen:
            seen.add(x)
            cyc.append(x)
            x = perm[x]
        out.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(out) or "()"


def _close(gens, limit=None):
    """All products of 0-based image tuples, or None once there are more
    than `limit` of them."""
    ident = tuple(range(len(gens[0])))
    seen, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for g in gens:
            for h in frontier:
                prod = tuple(g[i] for i in h)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        if limit is not None and len(seen) > limit:
            return None
        frontier = nxt
    return frozenset(seen)


def closure(gens, degree: int) -> frozenset:
    """All products of the generators, as 0-based image tuples."""
    return _close([tuple(g[i + 1] - 1 for i in range(degree)) for g in gens])


@functools.lru_cache(maxsize=None)
def subgroup_pool(family: str) -> tuple:
    """(subgroup, generators) for every subgroup of A5 or S5 whose order is
    in SUBGROUP_ORDERS, in a fixed order.  Every such subgroup has one or two
    generators, given as 0-based image tuples."""
    elems = sorted(itertools.permutations(range(5)))
    if family == "A5":
        elems = [g for g in elems
                 if sum(g[i] > g[j] for i in range(5) for j in range(i)) % 2 == 0]
    found = {}
    for gens in itertools.chain(((g,) for g in elems), itertools.combinations(elems, 2)):
        group = _close(gens, limit=max(SUBGROUP_ORDERS))
        if group is not None and len(group) in SUBGROUP_ORDERS:
            found.setdefault(group, gens)
    return tuple(found.items())


def _group_gens(family: str, n: int, points: list) -> list:
    """Generators of the family's group acting on the given points, as maps
    on 1..len(points) relabelled through `points`."""
    k = len(points)

    def on(images):  # images: 0-based images of 0..k-1 -> map on points
        return {points[i]: points[images[i]] for i in range(k)}

    cyc = [(i + 1) % n for i in range(n)]
    if family == "C":
        return [on(cyc)]
    if family == "D":
        return [on(cyc), on([(n - i) % n for i in range(n)])]
    if family == "S":
        return [on([1, 0] + list(range(2, n))), on(cyc)]
    if family == "A":
        return [on([1, 2, 0] + list(range(3, n))),
                on([0, 2, 3, 1] + list(range(4, n)))]
    raise ValueError(family)


def make_trace(rng, family: str, n: int) -> tuple:
    """(check, key): key identifies the group as a set of permutations."""
    degree = SMALL_GROUP_DEGREE if family in ("S", "A") else n
    points = rng.sample(range(1, degree + 1), n)
    gens = [
        {**{x: x for x in range(1, degree + 1)}, **g}
        for g in _group_gens(family, n, points)
    ]
    spec = ";".join(_cycles(g) for g in gens)
    argv = ("trace", "--group", spec, "--degree", str(degree))
    return Check("trace", argv, {"family": family, "n": n}), closure(gens, degree)


def make_subgroup(family: str, group: frozenset, gens: tuple) -> Check:
    """One subgroup of the named group A5 or S5, from `subgroup_pool`."""
    spec = ";".join(_cycles({i + 1: g[i] + 1 for i in range(5)}) for g in gens)
    argv = ("trace", "--group", family, "--subgroup", spec)
    return Check("trace", argv, {"family": family, "subgroup_order": len(group)})


def make_frobenius(rng, d) -> Check:
    pmax = rng.randint(1000, 3000)
    argv = ("frobenius", "--d", str(d), "--pmax", str(pmax))
    return Check("frobenius", argv, {"d": d, "pmax": pmax})


def make_lseries(rng, character) -> Check:
    nmax = rng.randint(100_000, 120_000)
    pmax = rng.randint(10_000, 12_000)
    argv = ("lseries", "--character", character, "--s", "2",
            "--nmax", str(nmax), "--pmax", str(pmax))
    return Check("lseries", argv, {"character": character, "nmax": nmax})


class Generator:
    """Rounds of one workload's checks, drawn from the seed."""

    MAX_DRAWS = 1000

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.seen = set()
        self.rounds = 0
        # the subgroups not yet drawn, in a seeded order
        self.subgroups = {}
        if workload == "algebra":
            for family in SUBGROUP_SLOTS:
                self.subgroups[family] = list(subgroup_pool(family))
                self.rng.shuffle(self.subgroups[family])

    def _unique(self, draw):
        """Draw until the check (or the group it names) is new in this run."""
        for _ in range(self.MAX_DRAWS):
            check, key = draw()
            if key not in self.seen:
                self.seen.add(key)
                return check
        raise RuntimeError(f"{self.workload}: ran out of distinct inputs")

    def _plain(self, make, *args):
        def draw():
            check = make(self.rng, *args)
            return check, check.argv
        return self._unique(draw)

    def _subgroup(self, family):
        if not self.subgroups[family]:
            raise RuntimeError(f"{self.workload}: ran out of distinct {family} subgroups")
        return make_subgroup(family, *self.subgroups[family].pop())

    def next_round(self) -> list:
        r, rng = self.rounds, self.rng
        self.rounds += 1
        if self.workload == "algebra":
            checks = [self._plain(make_frobenius, d) for d in FROBENIUS_DS]
            checks += [
                self._plain(make_lseries, LSERIES_CHARACTERS[(2 * r + i) % 4])
                for i in range(2)
            ]
            checks += [self._plain(make_hecke, t) for t in HECKE_TARGETS]
            checks += [
                self._unique(lambda g=group: make_trace(rng, *g))
                for group in TRACE_GROUPS
            ]
            checks += [self._subgroup(family) for family in SUBGROUP_SLOTS]
            return checks
        cells = FL_SMALL_CELLS if self.workload == "fl-small-p" else FL_LARGE_CELLS
        # kappa does not change the cost; alternating it covers both values
        return [
            self._plain(make_fl, p, va, vb, (i + r) % 2)
            for i, (p, va, vb) in enumerate(cells)
        ]
