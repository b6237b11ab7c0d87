"""The closed forms of the isotropy subgroup and of the coset order, checked
against the searches they replaced (kept in ``oracles``): over the whole
acceptance corpus on both sides, and on random integer matrices."""

import itertools

from hypothesis import assume, given, settings, strategies as st

from saitodual.burnside import _coset_order
from saitodual.groups import (GroupPresentation, isotropy_subgroup,
                              monodromy_element, subgroup_generated_by)
from saitodual.linalg import determinant

from oracles import divisor_coset_order, meet_isotropy


def sides(batch45):
    """(polynomial, group, zeta report) for both sides of every corpus
    polynomial, from the records of the acceptance batch."""
    for record in batch45.records:
        for rep in (record.theorem.rhs_report, record.theorem.lhs_report):
            yield rep.polynomial, rep.group, rep


def nonempty_subsets(n):
    for k in range(1, n + 1):
        yield from itertools.combinations(range(n), k)


class TestCorpusDifferential:
    def test_isotropy_matches_meet(self, batch45):
        checked = mismatches = 0
        for _, p, _ in sides(batch45):
            for subset in nonempty_subsets(p.rank):
                checked += 1
                mismatches += (isotropy_subgroup(p, subset)
                               != meet_isotropy(p, subset))
        assert (checked, mismatches) == (42912, 0)

    def test_coset_order_matches_divisor_search(self, batch45):
        # Every Burnside term of every equivariant zeta function, against
        # the monodromy element and every standard generator.
        checked = mismatches = 0
        for f, p, rep in sides(batch45):
            elements = [monodromy_element(f, p)] + p.generators()
            for h in rep.equivariant.terms:
                for g in elements:
                    checked += 1
                    mismatches += (_coset_order(h.basis, g.scaled())
                                   != divisor_coset_order(g, h))
        assert (checked, mismatches) == (88936, 0)


@st.composite
def small_groups(draw):
    """A presentation of a nonsingular 2x2 to 4x4 integer matrix with
    |det| <= 64, including negative and off-block entries."""
    n = draw(st.integers(2, 4))
    rows = draw(st.lists(st.lists(st.integers(-3, 5), min_size=n,
                                  max_size=n), min_size=n, max_size=n))
    det = determinant(rows)
    assume(det != 0 and abs(det) <= 64)
    return GroupPresentation(rows)


class TestRandomMatrices:
    @settings(max_examples=150, deadline=None)
    @given(small_groups(), st.data())
    def test_isotropy_matches_meet(self, p, data):
        subset = data.draw(st.sets(st.integers(0, p.rank - 1)))
        assert isotropy_subgroup(p, subset) == meet_isotropy(p, subset)

    @settings(max_examples=150, deadline=None)
    @given(small_groups(), st.data())
    def test_coset_order_matches_divisor_search(self, p, data):
        gens = p.generators()

        def element():
            coeffs = data.draw(st.lists(st.integers(0, p.order),
                                        min_size=len(gens),
                                        max_size=len(gens)))
            g = p.identity()
            for k, gen in zip(coeffs, gens):
                g = g + k * gen
            return g

        subset = data.draw(st.sets(st.integers(0, p.rank - 1)))
        subgroups = [isotropy_subgroup(p, subset),
                     subgroup_generated_by(p, [element(), element()])]
        g = element()
        for h in subgroups:
            assert _coset_order(h.basis, g.scaled()) == \
                divisor_coset_order(g, h)
