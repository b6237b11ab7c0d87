"""Acceptance criteria, one test per criterion, all exact (zero tolerance).

Each test registers a PASS/FAIL line that conftest prints in the terminal
summary.  The corpus is every loop/chain block and every direct sum of
blocks on at most 4 variables with exponents in [2, 5], no two equal up to
variable permutation (1500+ polynomials, >= 500 required).
"""

import itertools
from fractions import Fraction

from saitodual.burnside import (BurnsideElement, burnside_from_cyclotomic,
                                element_zeta, mark, multiply, restrict)
from saitodual.groups import (dual_subgroup, enumerate_subgroups,
                              full_subgroup, isotropy_subgroup,
                              monodromy_element, subgroup_generated_by)
from saitodual.linalg import determinant
from saitodual.polynomials import canonical_weights, decompose
from saitodual.zeta import classical_saito_dual

from conftest import distinct_groups, record_acceptance
from oracles import brute_multiply, brute_restrict, kernel_dual

RUNTIME_BUDGET_SECONDS = 120.0


def test_criterion_1_theorem_suite(corpus45, batch45):
    ok = True
    try:
        assert batch45.total == len(corpus45) >= 500
        assert batch45.theorem_fail == 0, batch45.failures
        assert batch45.theorem_pass == batch45.total
        assert batch45.elapsed < RUNTIME_BUDGET_SECONDS
    except BaseException:
        ok = False
        raise
    finally:
        record_acceptance(1, "theorem suite", ok)


def test_criterion_2_corollary_suite(corpus45, batch45):
    ok = True
    try:
        assert batch45.corollary_fail == 0, batch45.failures
        cyclic = [v for v in batch45.records
                  if v.theorem.rhs_report.group.is_cyclic]
        assert batch45.corollary_checked == len(cyclic)
        assert batch45.corollary_pass == batch45.corollary_checked
        for v in batch45.records:
            f = v.polynomial
            group = v.theorem.rhs_report.group
            # Pure loop/chain types have cyclic symmetry groups and are
            # therefore all covered, as are all cyclic 3-variable cases.
            if len(decompose(f).atoms) == 1:
                assert group.is_cyclic
                assert v.corollary_checked
            if f.nvars == 3 and group.is_cyclic:
                assert v.corollary_checked
    except BaseException:
        ok = False
        raise
    finally:
        record_acceptance(2, "corollary suite", ok)


def test_criterion_3_duality_algebra(batch45):
    ok = True
    try:
        groups = distinct_groups(batch45, max_order=200)
        assert groups
        checked = 0
        for p in groups:
            for h in enumerate_subgroups(p):
                dual = dual_subgroup(h)
                assert h.order * dual.order == p.order
                assert dual_subgroup(dual) == h
                assert dual == kernel_dual(h)
                checked += 1
        assert checked > 0
    except BaseException:
        ok = False
        raise
    finally:
        record_acceptance(3, "duality algebra (orders <= 200)", ok)


def test_criterion_4_burnside_oracle(batch45):
    ok = True
    try:
        groups = distinct_groups(batch45, max_order=48)
        assert groups
        for p in groups:
            scope = full_subgroup(p)
            subs = enumerate_subgroups(p)
            basis = {h: BurnsideElement.orbit(scope, h) for h in subs}
            products = {}
            for h, k in itertools.combinations_with_replacement(subs, 2):
                prod = multiply(basis[h], basis[k])
                assert prod == brute_multiply(scope, h, k)
                products[(h, k)] = prod
            for k in subs:
                for h in subs:
                    assert restrict(basis[h], k) == brute_restrict(basis[h], k)
            mark_vectors = {}
            for k in subs:
                marks = {h: mark(basis[h], k) for h in subs}
                for (h1, h2), prod in products.items():
                    assert mark(prod, k) == marks[h1] * marks[h2]
                for h in subs:
                    mark_vectors.setdefault(h, []).append(marks[h])
            vectors = [tuple(v) for v in mark_vectors.values()]
            assert len(set(vectors)) == len(vectors)
    except BaseException:
        ok = False
        raise
    finally:
        record_acceptance(4, "Burnside arithmetic oracle (orders <= 48)", ok)


def test_criterion_5_classical_zeta_cross_checks(batch45):
    ok = True
    try:
        for v in batch45.records:
            f = v.polynomial
            rep = v.theorem.rhs_report
            ws = canonical_weights(f)
            mu = Fraction(1)
            for w in ws.canonical_weights:
                mu *= Fraction(ws.canonical_degree - w, w)
            assert mu.denominator == 1
            sign = 1 if f.nvars % 2 else -1
            assert rep.classical.degree() == 1 + sign * int(mu)
        # Spot values, byte-exact, on the named polynomials; the corpus
        # contains each up to variable permutation.
        from saitodual.enumeration import canonical_matrix_key
        from saitodual.polynomials import parse_polynomial
        from saitodual.zeta import classical_zeta
        corpus_keys = {canonical_matrix_key(v.polynomial.exponents)
                       for v in batch45.records}
        for text, expected in [("x^3*y + y^3", "(1-t^3)(1-t^9)^-1"),
                               ("x^3 + x*y^2", "(1-t^3)^-1")]:
            f = parse_polynomial(text)
            assert classical_zeta(f).format() == expected
            assert canonical_matrix_key(f.exponents) in corpus_keys
    except BaseException:
        ok = False
        raise
    finally:
        record_acceptance(5, "classical zeta cross-checks", ok)


def test_criterion_6_correspondence_round_trip(batch45):
    ok = True
    try:
        checked = 0
        for v in batch45.records:
            rep = v.theorem.rhs_report
            p = rep.group
            if not p.is_cyclic:
                continue
            generator = max(p.elements(), key=lambda g: g.order)
            assert generator.order == p.order
            phi = element_zeta(generator, rep.equivariant)
            assert burnside_from_cyclotomic(phi, p) == rep.equivariant
            assert classical_saito_dual(classical_saito_dual(phi)) == phi
            checked += 1
        assert checked >= 500
    except BaseException:
        ok = False
        raise
    finally:
        record_acceptance(6, "correspondence round-trip", ok)


def test_criterion_7_isotropy_duality_instances(batch45):
    ok = True
    try:
        for v in batch45.records:
            rep_f = v.theorem.rhs_report
            rep_t = v.theorem.lhs_report
            f = v.polynomial
            e = f.exponents
            n = f.nvars
            for term in rep_f.subset_terms:
                inside = set(term.indices)
                complement = [j for j in range(n) if j not in inside]
                assert dual_subgroup(term.isotropy) == \
                    isotropy_subgroup(rep_t.group, complement)
                rows_in = [i for i in range(n)
                           if all(e.entry(i, j) == 0 for j in complement)]
                comp_rows = [i for i in range(n) if i not in rows_in]
                if complement:
                    block = e.submatrix(comp_rows, complement)
                    assert term.isotropy.order == abs(determinant(block))
                else:
                    assert term.isotropy.order == 1
    except BaseException:
        ok = False
        raise
    finally:
        record_acceptance(7, "isotropy duality instances", ok)


def test_criterion_8_restriction_consistency(batch45):
    # Restriction to every subgroup of index <= 12 that contains the
    # monodromy element, on every corpus group: 4,365 (polynomial,
    # subgroup) pairs.
    ok = True
    checked = 0
    try:
        for v in batch45.records:
            rep = v.theorem.rhs_report
            p = rep.group
            hk = subgroup_generated_by(p, [monodromy_element(v.polynomial, p)])
            for sub in enumerate_subgroups(p):
                if p.order // sub.order > 12 or not sub.contains(hk):
                    continue
                assert restrict(rep.equivariant, sub) == \
                    brute_restrict(rep.equivariant, sub)
                checked += 1
        assert checked == 4365
    except BaseException:
        ok = False
        raise
    finally:
        record_acceptance(8, "restriction consistency", ok)
