from fractions import Fraction

import pytest

from hensel import traceformula
from hensel.traceformula import (
    FiniteGroupTable,
    Permutation,
    _subgroup_classes,
    catalog,
    parse_cycles,
    perm_inv,
    perm_mul,
    verify_trace_formula,
)


# -- the per-delta reference: both sides of the identity on one test function
# at a time, against which verify_trace_formula's per-class check is tested


def delta_function(group: FiniteGroupTable, g: Permutation) -> list:
    """The test function supported at g with value 1 (indexed by element)."""
    phi = [0] * len(group)
    phi[group.index[g]] = 1
    return phi


def orbital_pairing(group: FiniteGroupTable, gamma: Permutation, phi) -> Fraction:
    """Sum of phi over the conjugacy class of gamma in the full group."""
    if gamma not in group.index:
        raise ValueError("gamma is not an element of the group")
    return sum(phi[group.index[g]] for g in group.conjugacy_class_of(gamma))


def induced_trace(group: FiniteGroupTable, subgroup, g: Permutation) -> int:
    """Number of cosets w*H fixed by g, i.e. with w^{-1} g w in H.

    This is the character of the permutation representation on G/H at g;
    at the identity it is the index, and for the trivial subgroup it is the
    regular-representation character (|G| at 1, zero elsewhere).
    """
    subgroup = frozenset(subgroup)
    if not group.is_subgroup(subgroup):
        raise ValueError("subgroup argument is not a subgroup")
    count = 0
    for w in group.coset_reps(subgroup):
        if perm_mul(perm_inv(w), perm_mul(g, w)) in subgroup:
            count += 1
    return count


def centralizer(group: FiniteGroupTable, g: Permutation) -> list:
    return [u for u in group.elements if perm_mul(u, g) == perm_mul(g, u)]


def geometric_side(group: FiniteGroupTable, subgroup, phi) -> Fraction:
    """Sum over H-classes of |Z_G(h)|/|Z_H(h)| times the orbit sum of phi."""
    subgroup = frozenset(subgroup)
    if not group.is_subgroup(subgroup):
        raise ValueError("subgroup argument is not a subgroup")
    total = Fraction(0)
    for cl in _subgroup_classes(group, subgroup):
        h = cl[0]
        zg = len(centralizer(group, h))
        zh = sum(
            1
            for u in subgroup
            if perm_mul(u, h) == perm_mul(h, u)
        )
        total += Fraction(zg, zh) * orbital_pairing(group, h, phi)
    return total


def test_parse_cycles():
    assert parse_cycles("(1 2)", 3) == (1, 0, 2)
    assert parse_cycles("(1 2)(3 4)", 4) == (1, 0, 3, 2)
    assert parse_cycles("(1,2,3)", 3) == (1, 2, 0)
    assert parse_cycles("", 3) == (0, 1, 2)
    with pytest.raises(ValueError):
        parse_cycles("(1 5)", 3)
    with pytest.raises(ValueError):
        parse_cycles("(1 1)", 3)


def test_group_orders():
    assert len(FiniteGroupTable.cyclic(1)) == 1
    assert len(FiniteGroupTable.cyclic(12)) == 12
    assert len(FiniteGroupTable.symmetric(3)) == 6
    assert len(FiniteGroupTable.symmetric(4)) == 24
    assert len(FiniteGroupTable.alternating(4)) == 12
    assert len(FiniteGroupTable.dihedral(4)) == 8


def check_axioms(group) -> bool:
    """Oracle: exhaustive closure, identity, inverse and associativity."""
    els = group.elements
    if any(perm_mul(a, b) not in group.index for a in els for b in els):
        return False
    if any(perm_inv(a) not in group.index for a in els):
        return False
    return all(
        perm_mul(perm_mul(a, b), c) == perm_mul(a, perm_mul(b, c))
        for a in els
        for b in els
        for c in els
    )


def test_group_axioms_exhaustively():
    for name, group in catalog():
        if len(group) <= 12:
            assert check_axioms(group), name


def test_abelian_classes_are_singletons():
    c6 = FiniteGroupTable.cyclic(6)
    assert all(len(cl) == 1 for cl in c6.conjugacy_classes())


def test_s3_class_sizes():
    s3 = FiniteGroupTable.symmetric(3)
    assert sorted(len(cl) for cl in s3.conjugacy_classes()) == [1, 2, 3]


def test_s4_has_five_classes():
    assert len(FiniteGroupTable.symmetric(4).conjugacy_classes()) == 5


def test_group_order_bound():
    # S5 has exactly the largest order accepted; a group one larger is refused
    assert len(FiniteGroupTable.symmetric(5)) == traceformula.MAX_GROUP_ORDER
    with pytest.raises(ValueError, match="exceeds 120"):
        FiniteGroupTable.cyclic(121)


def test_subgroup_counts():
    assert len(FiniteGroupTable.symmetric(3).all_subgroups()) == 6
    assert len(FiniteGroupTable.symmetric(4).all_subgroups()) == 30
    assert len(FiniteGroupTable.alternating(4).all_subgroups()) == 10
    assert len(FiniteGroupTable.dihedral(4).all_subgroups()) == 10
    assert len(FiniteGroupTable.alternating(5).all_subgroups()) == 59


def all_subgroups_oracle(group):
    """Every subgroup by joining each found subgroup with every element,
    closing from all its members; sorted as `all_subgroups` sorts."""
    cyclic = {group.subgroup_closure([g]) for g in group.elements}
    found = set(cyclic)
    frontier = set(cyclic)
    while frontier:
        nxt = set()
        for h in frontier:
            for g in group.elements:
                if g not in h:
                    joined = group.subgroup_closure(list(h) + [g])
                    if joined not in found:
                        found.add(joined)
                        nxt.add(joined)
        frontier = nxt
    return sorted(found, key=lambda s: (len(s), sorted(group.index[g] for g in s)))


def test_all_subgroups_matches_element_join_oracle():
    # C2^3 is the one group here with a subgroup that needs three generators
    c2_cubed = FiniteGroupTable.from_generators(
        6, [parse_cycles(c, 6) for c in ("(1 2)", "(3 4)", "(5 6)")], name="C2^3"
    )
    groups = [group for _, group in catalog()] + [FiniteGroupTable.dihedral(6), c2_cubed]
    for group in groups:
        assert group.all_subgroups() == all_subgroups_oracle(group), group.name


# -- orbit sums -----------------------------------------------------------------


def test_orbital_pairing_constant_function():
    s3 = FiniteGroupTable.symmetric(3)
    ones = [1] * len(s3)
    t = parse_cycles("(1 2)", 3)
    assert orbital_pairing(s3, t, ones) == 3  # transposition class size


def test_orbital_pairing_delta_at_identity():
    s3 = FiniteGroupTable.symmetric(3)
    phi = delta_function(s3, s3.identity)
    assert orbital_pairing(s3, s3.identity, phi) == 1


def test_orbital_pairing_delta_in_class():
    s3 = FiniteGroupTable.symmetric(3)
    t12, t13 = parse_cycles("(1 2)", 3), parse_cycles("(1 3)", 3)
    assert orbital_pairing(s3, t12, delta_function(s3, t13)) == 1


# -- induced character ------------------------------------------------------------


def test_induced_trace_at_identity_is_index():
    s3 = FiniteGroupTable.symmetric(3)
    h = s3.subgroup_closure([parse_cycles("(1 2)", 3)])
    assert induced_trace(s3, h, s3.identity) == 3


def test_trivial_subgroup_gives_regular_character():
    for group in (FiniteGroupTable.symmetric(3), FiniteGroupTable.dihedral(4)):
        triv = frozenset([group.identity])
        for g in group.elements:
            expected = len(group) if g == group.identity else 0
            assert induced_trace(group, triv, g) == expected


def test_induced_trace_worked_coset_count():
    s3 = FiniteGroupTable.symmetric(3)
    t12 = parse_cycles("(1 2)", 3)
    h = s3.subgroup_closure([t12])
    assert induced_trace(s3, h, t12) == 1


def test_induced_trace_is_class_function():
    s4 = FiniteGroupTable.symmetric(4)
    h = s4.subgroup_closure([parse_cycles("(1 2)", 4), parse_cycles("(3 4)", 4)])
    for cl in s4.conjugacy_classes():
        vals = {induced_trace(s4, h, g) for g in cl}
        assert len(vals) == 1


def test_induced_trace_rejects_non_subgroup():
    s3 = FiniteGroupTable.symmetric(3)
    bad = frozenset([s3.identity, parse_cycles("(1 2 3)", 3)])
    with pytest.raises(ValueError):
        induced_trace(s3, bad, s3.identity)


def test_burnside_average_is_one():
    # transitive action on cosets: the permutation character averages to 1
    for name, group in catalog():
        for sub in group.all_subgroups():
            total = sum(induced_trace(group, sub, g) for g in group.elements)
            assert Fraction(total, len(group)) == 1, name


# -- the identity itself ------------------------------------------------------------


def test_geometric_side_trivial_subgroup():
    s3 = FiniteGroupTable.symmetric(3)
    triv = frozenset([s3.identity])
    phi = delta_function(s3, s3.identity)
    assert geometric_side(s3, triv, phi) == 6
    t = parse_cycles("(1 2)", 3)
    assert geometric_side(s3, triv, delta_function(s3, t)) == 0


def test_geometric_side_full_group_class_function():
    s3 = FiniteGroupTable.symmetric(3)
    phi = [1] * len(s3)  # a class function
    # with the subgroup equal to the whole group this collapses to sum(phi)
    assert geometric_side(s3, frozenset(s3.elements), phi) == 6


def test_geometric_side_zero_function():
    s3 = FiniteGroupTable.symmetric(3)
    assert geometric_side(s3, frozenset(s3.elements), [0] * 6) == 0


def test_verify_s3_transposition_subgroup():
    s3 = FiniteGroupTable.symmetric(3)
    h = s3.subgroup_closure([parse_cycles("(1 2)", 3)])
    assert verify_trace_formula(s3, h) == (True, None)


def test_verify_s4_point_stabilizer():
    s4 = FiniteGroupTable.symmetric(4)
    h = s4.subgroup_closure([parse_cycles("(1 2)", 4), parse_cycles("(1 2 3)", 4)])
    assert len(h) == 6
    assert verify_trace_formula(s4, h) == (True, None)


def test_verify_regular_case_across_catalog():
    for name, group in catalog():
        triv = frozenset([group.identity])
        ok, witness = verify_trace_formula(group, triv)
        assert ok, (name, witness)


def test_verify_dihedral_all_subgroups():
    d4 = FiniteGroupTable.dihedral(4)
    for sub in d4.all_subgroups():
        assert verify_trace_formula(d4, sub) == (True, None)


def per_delta_witness(group, sub, geometric):
    """Least-index element whose delta function separates the two sides,
    with geometric(g) the geometric side on delta_g; None if none does."""
    for g in group.elements:
        if induced_trace(group, sub, g) != geometric(g):
            return g
    return None


def test_verify_matches_per_delta_oracle():
    groups = [group for _, group in catalog()] + [FiniteGroupTable.dihedral(6)]
    for group in groups:
        for sub in group.all_subgroups():
            def geometric(g):
                return geometric_side(group, sub, delta_function(group, g))

            assert per_delta_witness(group, sub, geometric) is None, group.name
            assert verify_trace_formula(group, sub) == (True, None), group.name


def test_wrong_weight_witness_matches_per_delta_oracle(monkeypatch):
    # a wrong weight on subgroup classes of size 2: both sides must then
    # name the same least-index failing element
    def bump(sub_class_size):
        return 1 if sub_class_size == 2 else 0

    right = traceformula._class_weight
    monkeypatch.setattr(
        traceformula,
        "_class_weight",
        lambda go, cs, so, scs: right(go, cs, so, scs) + bump(scs),
    )
    failures = 0
    for group in (FiniteGroupTable.symmetric(4), FiniteGroupTable.dihedral(6)):
        for sub in group.all_subgroups():
            hclasses = _subgroup_classes(group, sub)

            def geometric(g):
                total = 0
                for cl in hclasses:
                    h = cl[0]
                    zh = sum(1 for u in sub if perm_mul(u, h) == perm_mul(h, u))
                    weight = Fraction(len(centralizer(group, h)), zh) + bump(len(cl))
                    total += weight * orbital_pairing(group, h, delta_function(group, g))
                return total

            witness = per_delta_witness(group, sub, geometric)
            assert verify_trace_formula(group, sub) == (witness is None, witness)
            failures += witness is not None
    assert failures > 0


def test_perm_helpers():
    a = parse_cycles("(1 2 3)", 4)
    assert perm_mul(a, perm_inv(a)) == (0, 1, 2, 3)
