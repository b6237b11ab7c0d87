"""Equivariant/classical zeta functions, duality verifiers, Milnor numbers."""

import contextlib
import io

import pytest

import saitodual
from saitodual.burnside import (BurnsideElement, CyclotomicProduct,
                                element_zeta, restrict, saito_dual)
from saitodual.cli import main
from saitodual.enumeration import generate_corpus, run_batch
from saitodual.errors import DegenerateError, NonCyclicError
from saitodual.groups import (enumerate_subgroups, full_subgroup,
                              monodromy_element, subgroup_generated_by,
                              symmetry_group, trivial_subgroup)
from saitodual.polynomials import parse_polynomial
from saitodual.zeta import (DualPair, classical_saito_dual, classical_zeta,
                            equivariant_zeta, milnor_number,
                            verify_root_duality, verify_zeta_duality)


class TestEquivariantZeta:
    def test_fermat(self):
        f = parse_polynomial("x^5")
        rep = equivariant_zeta(f)
        p = rep.group
        scope = full_subgroup(p)
        assert rep.equivariant == BurnsideElement.orbit(
            scope, trivial_subgroup(p))
        assert rep.reduced == rep.equivariant - BurnsideElement.unit(scope)

    def test_chain_example(self):
        f = parse_polynomial("x^3*y + y^3")
        rep = equivariant_zeta(f)
        subs = {s.order: s for s in enumerate_subgroups(rep.group)}
        scope = full_subgroup(rep.group)
        expected = BurnsideElement.orbit(scope, subs[3]) \
            - BurnsideElement.orbit(scope, subs[1])
        assert rep.equivariant == expected
        # Subsets: {2} contributes +, {1} nothing, {1,2} contributes -.
        contributions = {t.indices: t.coefficient for t in rep.subset_terms}
        assert contributions == {(1,): 1, (0, 1): -1}

    def test_z6_example(self):
        f = parse_polynomial("x^3 + x*y^2")
        rep = equivariant_zeta(f)
        subs = {s.order: s for s in enumerate_subgroups(rep.group)}
        scope = full_subgroup(rep.group)
        assert rep.equivariant == BurnsideElement.orbit(scope, subs[2]) \
            - BurnsideElement.orbit(scope, subs[1])

    def test_full_subset_term(self, corpus_sample):
        # The all-variables subset always contributes (-1)^(n-1) with
        # trivial isotropy.
        for f in corpus_sample:
            rep = equivariant_zeta(f)
            n = f.nvars
            full_term = next(t for t in rep.subset_terms
                             if len(t.indices) == n)
            assert full_term.coefficient == (1 if n % 2 else -1)
            assert full_term.isotropy.is_trivial()

    def test_isotropy_orders_match_block_determinants(self, corpus_sample):
        # |G^I| equals |det of the complementary block|.
        from saitodual.linalg import determinant
        for f in corpus_sample:
            e = f.exponents
            n = f.nvars
            rep = equivariant_zeta(f)
            for t in rep.subset_terms:
                if len(t.indices) == n:
                    assert t.isotropy.order == 1
                    continue
                inside = set(t.indices)
                rows_in = [i for i in range(n)
                           if all(e.entry(i, j) == 0
                                  for j in range(n) if j not in inside)]
                comp_rows = [i for i in range(n) if i not in rows_in]
                comp_cols = [j for j in range(n) if j not in inside]
                block = e.submatrix(comp_rows, comp_cols)
                assert t.isotropy.order == abs(determinant(block))


class TestClassicalZeta:
    def test_fermat(self):
        assert classical_zeta(parse_polynomial("x^3")) == \
            CyclotomicProduct(3, {3: 1})

    def test_chain(self):
        phi = classical_zeta(parse_polynomial("x^3*y + y^3"))
        assert phi == CyclotomicProduct(9, {3: 1, 9: -1})
        assert phi.format() == "(1-t^3)(1-t^9)^-1"

    def test_z6(self):
        phi = classical_zeta(parse_polynomial("x^3 + x*y^2"))
        assert phi == CyclotomicProduct(3, {3: -1})
        assert phi.format() == "(1-t^3)^-1"

    def test_two_paths_agree_via_restriction(self, corpus_sample):
        # Restricting the equivariant zeta to the subgroup generated by the
        # monodromy element and evaluating there gives the same answer.
        for f in corpus_sample[:15]:
            rep = equivariant_zeta(f)
            h = monodromy_element(f, rep.group)
            hk = subgroup_generated_by(rep.group, [h])
            assert element_zeta(h, restrict(rep.equivariant, hk)) == \
                rep.classical


class TestClassicalSaitoDual:
    def test_single_factor(self):
        phi = CyclotomicProduct(8, {8: 1})
        assert classical_saito_dual(phi) == CyclotomicProduct(8, {1: -1})

    def test_involution(self):
        phi = CyclotomicProduct(12, {1: -1, 2: 3, 12: -2})
        assert classical_saito_dual(classical_saito_dual(phi)) == phi

    def test_z6_hand_computation(self):
        phi = CyclotomicProduct(6, {3: 1, 6: -1, 1: -1})
        assert classical_saito_dual(phi) == \
            CyclotomicProduct(6, {2: -1, 1: 1, 6: 1})


class TestZetaDuality:
    def test_fermat_self_dual(self):
        report = verify_zeta_duality(DualPair(parse_polynomial("x^5")))
        assert report.kind == "theorem"
        assert report.equal
        assert report.witness is None

    def test_chain_example(self):
        f = parse_polynomial("x^3*y + y^3")
        report = verify_zeta_duality(DualPair(f))
        assert report.equal
        # lhs is the transposed-side reduced zeta: [G*/Z3] - [G*/e] - 1.
        orders = sorted((k.order, c) for k, c in report.lhs.terms.items())
        assert orders == [(1, -1), (3, 1), (9, -1)]

    def test_even_variable_count(self):
        pair = DualPair(parse_polynomial("x^3 + x*y^2"))
        assert verify_zeta_duality(pair).equal

    def test_sign_matters(self):
        # Forcing the wrong sign must break equality: the check is exact.
        f = parse_polynomial("x^5")
        rep = equivariant_zeta(f)
        rep_t = equivariant_zeta(f.transpose())
        assert rep_t.reduced != saito_dual(rep.reduced)
        assert rep_t.reduced == -1 * saito_dual(rep.reduced)


class TestRootDuality:
    def test_z6_example(self):
        pair = DualPair(parse_polynomial("x^3 + x*y^2"))
        report = verify_root_duality(pair)
        assert report.kind == "corollary"
        assert report.equal
        assert report.lhs == CyclotomicProduct(6, {2: 1, 6: -1, 1: -1})

    def test_fermat(self):
        report = verify_root_duality(DualPair(parse_polynomial("x^7")))
        assert report.equal

    def test_reduced_gcd_case_matches_monodromy_zeta(self):
        # With gcd factor 1 on both sides the root is the monodromy element
        # itself and the left side is its reduced zeta.
        f = parse_polynomial("x^3*y + y^3")
        report = verify_root_duality(DualPair(f))
        assert report.equal
        rep_t = equivariant_zeta(f.transpose())
        h_t = monodromy_element(f.transpose(), rep_t.group)
        assert report.lhs == element_zeta(h_t, rep_t.reduced)

    def test_non_cyclic_rejected(self):
        with pytest.raises(NonCyclicError) as info:
            verify_root_duality(DualPair(parse_polynomial("x^2 + y^2")))
        assert "2, 2" in str(info.value) or "(2, 2)" in str(info.value)


def count_calls(monkeypatch, *names):
    """Count calls of the named package functions, wherever they are
    looked up from."""
    counts = dict.fromkeys(names, 0)
    modules = [saitodual.cli, saitodual.enumeration, saitodual.groups,
               saitodual.polynomials, saitodual.zeta]
    for name in names:
        original = getattr(saitodual, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


class TestDualPair:
    def test_fields_computed_on_first_use(self):
        f = parse_polynomial("x^2 + y^2")
        pair = DualPair(f)
        assert pair.roots == []
        assert {"group", "roots"} == set(vars(pair)) - {"f"}
        assert pair.group_t is pair.group.dual()
        assert pair.group_t == symmetry_group(pair.ft)
        assert pair.ft.exponents == f.exponents.transpose()

    def test_batch_computes_each_fact_once(self, monkeypatch):
        corpus, _ = generate_corpus(3, 4, include_sums=True)
        counts = count_calls(monkeypatch, "equivariant_zeta",
                             "symmetry_group", "canonical_weights",
                             "geometric_roots")
        report = run_batch(corpus)
        assert report.ok and report.corollary_checked > 0
        # The root duality is checked in closed form: no root is listed.
        assert counts == {"equivariant_zeta": 2 * len(corpus),
                          "symmetry_group": len(corpus),
                          "canonical_weights": 2 * len(corpus),
                          "geometric_roots": 0}

    def test_roots_command_computes_roots_once_per_side(self, monkeypatch):
        # `roots` lists the roots of f only; the transposed side enters the
        # corollary through its zeta report.
        counts = count_calls(monkeypatch, "geometric_roots",
                             "canonical_weights")
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["roots", "x^3*y + y^3*z + z^3*x", "--json"])
        assert code == 0
        assert counts == {"geometric_roots": 1, "canonical_weights": 2}


class TestEdgeCaseInvertibles:
    # The duality needs only det != 0; degenerate and non-decomposable
    # polynomials must verify too.
    @pytest.mark.parametrize("text", [
        "x*y + x*y^2",        # unimodular: trivial symmetry group
        "x^2 + x*y",          # chain with a unit mid-exponent
        "x^2*y*z + y^2 + z^2",  # not a sum of loop/chain blocks
        "x^2*y + y",          # zero canonical weight
        "x + y^2",            # linear monomial
    ])
    def test_duality_holds(self, text):
        pair = DualPair(parse_polynomial(text))
        assert verify_zeta_duality(pair).equal
        if pair.group.is_cyclic:
            assert verify_root_duality(pair).equal


class TestMilnorNumber:
    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_fermat(self, p):
        assert milnor_number(parse_polynomial(f"x^{p}")) == p - 1

    def test_examples(self):
        assert milnor_number(parse_polynomial("x^3*y + y^3")) == 7
        assert milnor_number(parse_polynomial("x^3 + x*y^2")) == 4

    def test_euler_characteristic_consistency(self, corpus_sample):
        for f in corpus_sample:
            mu = milnor_number(f)
            chi = classical_zeta(f).degree()
            sign = 1 if f.nvars % 2 else -1
            assert chi == 1 + sign * mu

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateError):
            milnor_number(parse_polynomial("x^2*y + y"))
        with pytest.raises(DegenerateError):
            milnor_number(parse_polynomial("x^2*y*z + y^2 + z^2"))


class TestReports:
    def test_zeta_report_serialization(self):
        rep = equivariant_zeta(parse_polynomial("x^3*y + y^3"))
        data = rep.to_json()
        assert data["polynomial"] == "x^3*y + y^3"
        assert data["classical"] == {"d": 9, "factors": {"3": 1, "9": -1}}
        assert data["group"]["order"] == 9
        assert all({"I", "coefficient", "isotropy", "torusEuler"}
                   <= set(t) for t in data["perSubsetTerms"])

    def test_verification_report_serialization(self):
        rep = verify_zeta_duality(DualPair(parse_polynomial("x^2")))
        data = rep.to_json(include_reports=True)
        assert data["kind"] == "theorem"
        assert data["equal"] is True
        assert "lhsReport" in data and "rhsReport" in data
