"""Tests for regular-subgroup search and translation machinery."""

import pytest

from repro.errors import GroupError
from repro.groups import (
    CyclicGroup,
    DihedralGroup,
    DirectProductGroup,
    canonical_regular_subgroup,
    find_regular_subgroups,
    left_translations,
    orbits_of,
)
from repro.groups.symmetric import compose, identity_permutation, invert
from tests.symmetry_oracle import is_closed_under_composition


def dihedral_action(n):
    """D_n acting on the n-cycle's vertices, as explicit permutations."""
    perms = set()
    for k in range(n):
        perms.add(tuple((i + k) % n for i in range(n)))  # rotations
        perms.add(tuple((k - i) % n for i in range(n)))  # reflections
    return sorted(perms)


class TestOrbits:
    def test_orbits_of_identity_only(self):
        assert orbits_of([identity_permutation(3)], 3) == [[0], [1], [2]]

    def test_orbits_merge_via_generated_group(self):
        # A 3-cycle on {0,1,2} leaves {3} alone.
        p = (1, 2, 0, 3)
        assert orbits_of([p], 4) == [[0, 1, 2], [3]]

    def test_orbit_of_full_rotation(self):
        p = tuple((i + 1) % 6 for i in range(6))
        assert orbits_of([p], 6) == [[0, 1, 2, 3, 4, 5]]


class TestRegularSubgroups:
    def test_cycle_c5_has_unique_regular_subgroup(self):
        subs = find_regular_subgroups(dihedral_action(5), 5)
        assert len(subs) == 1
        assert len(subs[0]) == 5

    def test_cycle_c4_has_two_regular_subgroups(self):
        # Z4 (rotations) and the Klein group (r^2 + two edge reflections).
        subs = find_regular_subgroups(dihedral_action(4), 4)
        assert len(subs) == 2
        sizes = sorted(len(s) for s in subs)
        assert sizes == [4, 4]

    def test_cycle_c6_has_two_regular_subgroups(self):
        subs = find_regular_subgroups(dihedral_action(6), 6)
        assert len(subs) == 2  # Z6 and S3

    def test_every_result_is_a_regular_group(self):
        for subs_n in (4, 6):
            for sub in find_regular_subgroups(dihedral_action(subs_n), subs_n):
                assert is_closed_under_composition(set(sub))
                images = {g[0] for g in sub}
                assert images == set(range(subs_n))  # transitive & free

    def test_limit_parameter(self):
        subs = find_regular_subgroups(dihedral_action(6), 6, limit=1)
        assert len(subs) == 1

    def test_no_regular_subgroup_when_intransitive(self):
        # Group fixing point 2: only permutes {0,1}.
        perms = [identity_permutation(3), (1, 0, 2)]
        assert find_regular_subgroups(perms, 3) == []

    def test_requires_identity(self):
        with pytest.raises(GroupError):
            find_regular_subgroups([(1, 0, 2)], 3)

    def test_canonical_choice_is_deterministic(self):
        subs1 = canonical_regular_subgroup(dihedral_action(6), 6)
        subs2 = canonical_regular_subgroup(dihedral_action(6), 6)
        assert subs1 == subs2

    def test_canonical_choice_none_when_absent(self):
        perms = [identity_permutation(3), (1, 0, 2)]
        assert canonical_regular_subgroup(perms, 3) is None


class TestLeftTranslations:
    def test_translations_of_cyclic_group(self):
        g = CyclicGroup(5)
        perms = left_translations(g)
        assert len(perms) == 5
        assert identity_permutation(5) in perms
        # They form a regular group on the element indices.
        assert is_closed_under_composition(set(perms))
        assert {p[0] for p in perms} == set(range(5))

    def test_translations_of_dihedral_group_are_free(self):
        g = DihedralGroup(4)
        perms = left_translations(g)
        assert len(perms) == 8
        for p in perms:
            if p != identity_permutation(8):
                assert all(p[i] != i for i in range(8))

    def test_translations_of_product_group(self):
        g = DirectProductGroup(CyclicGroup(2), CyclicGroup(3))
        perms = left_translations(g)
        assert len(perms) == 6
        assert is_closed_under_composition(set(perms))

    def test_translation_composition_matches_group_operation(self):
        g = CyclicGroup(6)
        elems = list(g.elements())
        perms = left_translations(g)
        # translation(a) ∘ translation(b) == translation(a+b)
        for a in (1, 4):
            for b in (2, 5):
                pa, pb = perms[a], perms[b]
                assert compose(pa, pb) == perms[g.operate(a, b)]
