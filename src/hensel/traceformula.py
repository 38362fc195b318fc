"""Exact verification of the finite-group trace identity.

For a finite group G with subgroup H, the character of the permutation
representation on G/H (fixed-coset count) is matched against the weighted
sum of conjugation-orbit sums over H-classes, the weight of a class being
the centralizer-size quotient |Z_G(h)| / |Z_H(h)|.  Checking equality on
every delta function is a full verification: the delta functions span all
test functions, and both sides are linear.  Both sides on delta_g depend
only on the conjugacy class of g, so `verify_trace_formula` checks one
element per class.  The per-element sides, evaluated on each delta function
in turn, are the reference it is tested against; they live in
`tests/test_traceformula.py`.

Groups are tables of permutations (0-based image tuples) closed under
composition; the spectral side is computed directly from cosets, never
through irreducible decompositions.
"""

from __future__ import annotations

from fractions import Fraction

Permutation = tuple[int, ...]

# Largest group order accepted, S5's: the closure check in FiniteGroupTable
# is quadratic in the order, and S6 (order 720) ran for more than 90 s.
MAX_GROUP_ORDER = 120


def identity_perm(degree: int) -> Permutation:
    return tuple(range(degree))


def perm_mul(a: Permutation, b: Permutation) -> Permutation:
    """Composition a after b: (a*b)(i) = a(b(i))."""
    return tuple(a[b[i]] for i in range(len(a)))


def perm_inv(a: Permutation) -> Permutation:
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def parse_cycles(text: str, degree: int) -> Permutation:
    """Permutation from 1-based cycle notation, e.g. "(1 2)(3 4)".

    Separators inside a cycle may be spaces or commas; "()" and the empty
    string give the identity.
    """
    images = list(range(degree))
    text = text.strip()
    if text in ("", "()"):
        return tuple(images)
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"malformed cycle string {text!r}")
    for chunk in text[1:-1].split(")("):
        entries = [int(t) for t in chunk.replace(",", " ").split()]
        if len(entries) != len(set(entries)):
            raise ValueError(f"repeated point in cycle {chunk!r}")
        if any(not 1 <= e <= degree for e in entries):
            raise ValueError(f"cycle {chunk!r} leaves the degree-{degree} domain")
        for a, b in zip(entries, entries[1:] + entries[:1]):
            images[a - 1] = b - 1
    return tuple(images)


def _closure(identity: Permutation, generators) -> set:
    """Every product of the generators, breadth first from the identity;
    a ValueError as soon as there are more than MAX_GROUP_ORDER."""
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for g in generators:
            for h in frontier:
                prod = perm_mul(g, h)
                if prod not in seen:
                    if len(seen) == MAX_GROUP_ORDER:
                        raise ValueError(f"group order exceeds {MAX_GROUP_ORDER}")
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return seen


class FiniteGroupTable:
    """A finite permutation group with composition tables built on demand."""

    def __init__(self, degree: int, elements, name: str | None = None):
        elements = sorted(set(elements))
        ident = identity_perm(degree)
        if ident not in elements:
            raise ValueError("identity permutation missing")
        for g in elements:
            if sorted(g) != list(range(degree)):
                raise ValueError(f"{g} is not a permutation of 0..{degree - 1}")
        self.degree = degree
        self.elements = tuple(elements)
        self.name = name or f"group of order {len(elements)}"
        self.index = {g: i for i, g in enumerate(self.elements)}
        self.identity = ident
        self._classes = None
        self._class_of = None
        if any(perm_mul(a, b) not in self.index for a in elements for b in elements):
            raise ValueError("element list is not closed under composition")

    @classmethod
    def from_generators(cls, degree: int, generators, name=None):
        gens = [tuple(g) for g in generators]
        return cls(degree, _closure(identity_perm(degree), gens), name)

    @classmethod
    def cyclic(cls, n: int):
        _check_degree(n)
        gen = tuple((i + 1) % n for i in range(n))
        return cls.from_generators(n, [gen], name=f"C{n}")

    @classmethod
    def symmetric(cls, n: int):
        _check_degree(n)
        gens = []
        if n >= 2:
            gens = [tuple([1, 0] + list(range(2, n))), tuple(list(range(1, n)) + [0])]
        return cls.from_generators(n, gens, name=f"S{n}")

    @classmethod
    def alternating(cls, n: int):
        _check_degree(n)
        gens = []
        for i in range(n - 2):
            images = list(range(n))
            images[i], images[i + 1], images[i + 2] = images[i + 1], images[i + 2], images[i]
            gens.append(tuple(images))
        return cls.from_generators(n, gens, name=f"A{n}")

    @classmethod
    def dihedral(cls, n: int):
        """Symmetries of the regular n-gon on n points (order 2n)."""
        if n < 3:
            raise ValueError("dihedral groups here start at n = 3")
        rot = tuple((i + 1) % n for i in range(n))
        ref = tuple((n - i) % n for i in range(n))
        return cls.from_generators(n, [rot, ref], name=f"D{n}")

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"FiniteGroupTable({self.name}, order={len(self)})"

    # -- conjugation structure ----------------------------------------------

    def conjugacy_classes(self) -> tuple:
        """Disjoint classes covering the group, ordered by least member index;
        members inside a class are ordered by index as well."""
        if self._classes is None:
            self._classes = tuple(_subgroup_classes(self, self.elements))
            self._class_of = {g: cl for cl in self._classes for g in cl}
        return self._classes

    def conjugacy_class_of(self, g: Permutation) -> tuple:
        self.conjugacy_classes()
        if g not in self._class_of:
            raise ValueError("element not in the group")
        return self._class_of[g]

    # -- subgroups ------------------------------------------------------------

    def subgroup_closure(self, generators) -> frozenset:
        gens = [tuple(g) for g in generators]
        for g in gens:
            if g not in self.index:
                raise ValueError(f"{g} is not an element of {self.name}")
        return frozenset(_closure(self.identity, gens))

    def is_subgroup(self, subset) -> bool:
        subset = frozenset(subset)
        if self.identity not in subset or not subset <= set(self.elements):
            return False
        return all(perm_mul(a, perm_inv(b)) in subset for a in subset for b in subset)

    def all_subgroups(self) -> list:
        """Every subgroup, found by joining subgroups with cyclic subgroups
        until nothing new appears.  Every subgroup is the join of the cyclic
        subgroups it contains, and joining h with an element g is joining it
        with <g>, so one join per cyclic subgroup not inside h finds them
        all.  Each subgroup is closed from the few generators it was first
        reached with, never from all its members.
        Deterministic order: by size, then by sorted member indices."""
        cyclic = {}  # cyclic subgroup -> its least-index generator
        for g in self.elements:
            cyclic.setdefault(self.subgroup_closure([g]), g)
        found = {c: (g,) for c, g in cyclic.items()}  # subgroup -> generators
        frontier = list(found)
        while frontier:
            nxt = []
            for h in frontier:
                for g in cyclic.values():
                    if g in h:
                        continue
                    gens = found[h] + (g,)
                    joined = self.subgroup_closure(gens)
                    if joined not in found:
                        found[joined] = gens
                        nxt.append(joined)
            frontier = nxt
        return sorted(
            found, key=lambda s: (len(s), sorted(self.index[g] for g in s))
        )

    def coset_reps(self, subgroup) -> list:
        """Representatives of the left cosets w * subgroup (least index)."""
        subgroup = frozenset(subgroup)
        seen = set()
        reps = []
        for w in self.elements:
            coset = frozenset(perm_mul(w, h) for h in subgroup)
            if coset not in seen:
                seen.add(coset)
                reps.append(w)
        return reps


def _check_degree(n: int):
    if n < 1:
        raise ValueError(f"group degree must be at least 1, got {n}")


# -- the two sides of the identity --------------------------------------------


def _subgroup_classes(group: FiniteGroupTable, subgroup) -> list:
    """Conjugacy classes of the subgroup under its own conjugation action.
    Each class is the orbit of the least-index member not yet classed, so
    the classes come out ordered by least member index."""
    members = sorted(subgroup, key=group.index.__getitem__)
    remaining = set(members)
    classes = []
    while remaining:
        h = min(remaining, key=group.index.__getitem__)
        orbit = {perm_mul(u, perm_mul(h, perm_inv(u))) for u in members}
        classes.append(tuple(sorted(orbit, key=group.index.__getitem__)))
        remaining -= orbit
    return classes


def _class_weight(group_order: int, class_size: int, sub_order: int, sub_class_size: int) -> Fraction:
    """|Z_G(h)| / |Z_H(h)| by orbit-stabilizer: (|G|/|h^G|) / (|H|/|h^H|)."""
    return Fraction(group_order * sub_class_size, class_size * sub_order)


def verify_trace_formula(group: FiniteGroupTable, subgroup):
    """Check the identity on the full delta-function basis, one conjugacy
    class of the group at a time.

    By linearity, equality on every delta function proves it for all test
    functions.  One representative per class suffices:
    - the fixed-coset count is a class function, because w -> u w maps the
      cosets fixed by g onto those fixed by u g u^{-1};
    - the geometric side on delta_g depends only on the class g^G, since it
      is the sum of the weights of the subgroup classes inside g^G;
    so equality at one element of each class is equality on the whole
    delta basis.  The spectral side still counts fixed cosets directly,
    never through Frobenius's formula, so the two sides stay independent.
    The per-delta reference (`induced_trace`, `geometric_side`) is in
    `tests/test_traceformula.py`.
    Classes are ordered by their least member, which is the one checked, so
    a failing class yields the least-index failing element.

    Returns (True, None) or (False, first failing element).
    """
    subgroup = frozenset(subgroup)
    if not group.is_subgroup(subgroup):
        raise ValueError("subgroup argument is not a subgroup")
    geometric = {cl[0]: 0 for cl in group.conjugacy_classes()}
    for hcl in _subgroup_classes(group, subgroup):
        cl = group.conjugacy_class_of(hcl[0])
        geometric[cl[0]] += _class_weight(len(group), len(cl), len(subgroup), len(hcl))
    cosets = [(perm_inv(w), w) for w in group.coset_reps(subgroup)]
    for g, geo in geometric.items():
        spectral = sum(1 for wi, w in cosets if perm_mul(wi, perm_mul(g, w)) in subgroup)
        if spectral != geo:
            return False, g
    return True, None


def catalog() -> list:
    """The built-in verification battery: (name, group) pairs."""
    groups = [FiniteGroupTable.cyclic(n) for n in range(1, 13)]
    groups += [
        FiniteGroupTable.symmetric(3),
        FiniteGroupTable.symmetric(4),
        FiniteGroupTable.alternating(4),
        FiniteGroupTable.dihedral(4),
    ]
    return [(g.name, g) for g in groups]
