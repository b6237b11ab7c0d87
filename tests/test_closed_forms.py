"""The closed forms of the isotropy subgroup, the coset order, the root
count and the root duality, the subgroups built in SNF coordinates, the
one integer solver of ``linalg``, the integer element arithmetic on
d-scaled vectors, the annihilator test of the zeta duality, the group,
zeta report, classical zeta, weights and dual maps of a direct sum
assembled from its atoms, the duality verdicts on product forms, and
the meets, dual subgroups and containment read off cached scaled
inverses, the atom records' isotropy subgroups read off complementary
blocks and the transposed side's contributing subsets read off the
complements of the direct side's, checked against the
searches, root lists, join closure, rational elimination, rational
element arithmetic, dual lattices, whole-matrix Smith forms, full subset
loop, ``element_zeta``, ``Fraction`` weights, whole-matrix dual
subgroups, dual-lattice HNFs, inverses of C*B, lattice solves,
``isotropy_subgroup``, ``_coset_order`` and subset listings they
replaced (kept in ``oracles`` or in the package): over the whole
acceptance corpus on both sides, and on random integer matrices."""

import copy
import dataclasses
import itertools
import json
import random
from fractions import Fraction
from unittest import mock

from hypothesis import assume, example, given, settings, strategies as st

import pytest

from saitodual.burnside import (_coset_order, burnside_from_cyclotomic,
                                element_zeta, saito_dual)
from saitodual.errors import ResourceBoundError, SingularMatrixError
from saitodual.groups import (MAX_LISTED_SUBGROUPS, GroupElement,
                              GroupPresentation, SubgroupKey, _is_dual,
                              _root_vectors,
                              dual_subgroup, enumerate_subgroups,
                              full_subgroup,
                              geometric_roots,
                              isotropy_subgroup, monodromy_element, pairing,
                              root_count, subgroup_generated_by,
                              subgroup_count, subgroup_meet,
                              symmetry_group, trivial_subgroup)
from saitodual.linalg import (IntMatrix, _format_vectors, determinant,
                              lattice_basis, lattice_solve, scaled_inverse)
from saitodual import zeta
from saitodual.enumeration import generate_corpus, run_batch
from saitodual.polynomials import (InvertiblePolynomial, _blocks_of,
                                   _components, canonical_weights,
                                   parse_polynomial, smith_weights)
from saitodual.zeta import (AtomRecords, DualPair, _complement_subsets,
                            _contributing_subsets, _modulus, _sum_facts,
                            _symmetry_group, equivariant_zeta,
                            generating_root_exists, generating_root_zeta,
                            verify_zeta_duality)

from conftest import (distinct_groups, pair_over, permuted,
                      sparse_invertible)
from oracles import (RationalElement, ambient_quotient_data, brute_roots,
                     coordinate_roots, cramer_weights,
                     direct_equivariant_zeta, divisor_coset_order,
                     element_mismatches, fraction_lattice_solve,
                     fraction_scaled_inverse, fraction_weights, hnf_meet,
                     inverse_dual,
                     join_closure_subgroups, kernel_dual_all_pairs,
                     listed_root_zeta, meet_isotropy,
                     product_pairing_is_dual, reference_generators,
                     solve_contains, solve_contains_element, term_verdict,
                     triangular_contains, triangular_contains_element,
                     triangular_dual, triangular_meet, with_generators)


def root_closed_forms(rep):
    """(whether a generating root exists, its zeta function) on the side
    of the zeta report ``rep`` of a cyclic group, by the closed forms the
    root duality reads off the side's records."""
    _, d, c, modulus = _sum_facts(rep._records)
    return (generating_root_exists(c, d, modulus),
            generating_root_zeta(rep._records, d))


def sum_fact_mismatches(pair):
    """Where the facts the root duality reads off each side's records
    (``_sum_facts``: cyclicity, order, gcd factor of the weights and
    monodromy modulus) differ from a fresh Smith form of that side's
    whole matrix, from its weights (``canonical_weights``, another Smith
    form of it) and from its zeta report: the modulus is both the lcm of
    the report's blocks' monodromy orders and the reduced degree.  The
    composed group of ``f`` and its dual must agree too."""
    bad = []
    sides = ((pair.f, pair.records, pair.report, pair.group),
             (pair.ft, pair.records_t, pair.report_t, pair.group_t))
    for g, records, report, composed in sides:
        fresh = symmetry_group(g)
        weights = canonical_weights(g)
        oracle = (fresh.is_cyclic, fresh.order, weights.gcd_factor,
                  weights.reduced_degree)
        if _sum_facts(records) != oracle:
            bad.append(f"facts of {g.text()}")
        if (composed.is_cyclic, composed.order) != oracle[:2] or (
                g.weights.gcd_factor, _modulus(report._records)) != oracle[2:]:
            bad.append(f"composed {g.text()}")
    return bad


def sides(batch45):
    """(polynomial, group, zeta report) for both sides of every corpus
    polynomial, from the records of the acceptance batch."""
    for record in batch45.records:
        for rep in (record.theorem.rhs_report, record.theorem.lhs_report):
            yield rep.polynomial, rep.group, rep


def nonempty_subsets(n):
    for k in range(1, n + 1):
        yield from itertools.combinations(range(n), k)


def factorization_mismatches(p):
    """The facts of the one Smith form S = U*C*V of ``p`` that fail: its
    dual is built from the transposed factorization and returns ``p``;
    the dual's invariant factors and ambient basis are those of a fresh
    Smith form of C^T; the stored generators have the orders d_j and,
    with the d*e_i, span the ambient basis, which the columns of d*C^-1
    (by rational elimination) span too; every standard generator is the
    sum of its SNF coordinates a_j times the stored generators; and every
    pair of standard generators x, y of the two sides pairs to
    sum_j a_j*b_j/d_j mod 1 in their SNF coordinates a, b."""
    q = p.dual()
    d, n, factors = p.order, p.rank, p.invariant_factors
    bad = []
    if q.dual() is not p:
        bad.append("dual of dual")
    fresh = GroupPresentation(p.constraint.transpose())
    if (q.invariant_factors, q.ambient_basis) != (
            fresh.invariant_factors, fresh.ambient_basis):
        bad.append("fresh Smith form of C^T")
    gens = p._scaled_gens().columns()
    if [GroupElement._wrap(p, tuple(x % d for x in g)).order
            for g in gens] != list(factors):
        bad.append("generator orders")
    base = [[d if r == i else 0 for r in range(n)] for i in range(n)]
    inverse = fraction_scaled_inverse(p.constraint, d)
    if not (lattice_basis(gens + base, n) == p.ambient_basis
            == lattice_basis(inverse.columns() + base, n)):
        bad.append("ambient basis")
    for x in p.generators():
        a = p._coordinates(x.scaled())
        if tuple(sum(c * g[i] for c, g in zip(a, gens)) % d
                 for i in range(n)) != x.scaled():
            bad.append(f"coordinates of {x}")
        for y in q.generators():
            b = q._coordinates(y.scaled())
            diagonal = sum(Fraction(s * t, o)
                           for s, t, o in zip(a, b, factors)) % 1
            if pairing(x, y) != diagonal:
                bad.append(f"pairing of {x} and {y}")
    return bad


def quotient_data_mismatches(f, p):
    """Where the generators of ``p``'s own Smith form and those of the
    second Smith form the package ran before (``ambient_quotient_data``)
    give different results: the invariant factors, every subgroup, and,
    for a cyclic group, the element of the generating-root zeta function
    under ``burnside_from_cyclotomic``.  The roots of the old data are
    ``coordinate_roots``, checked against ``geometric_roots``
    elsewhere."""
    gens, orders, _ = ambient_quotient_data(p)
    old = with_generators(p, gens)
    bad = []
    if orders != p.invariant_factors:
        bad.append("orders")
    if enumerate_subgroups(old) != enumerate_subgroups(p):
        bad.append("subgroups")
    if p.is_cyclic:
        rep = equivariant_zeta(f, p)
        phi = generating_root_zeta(rep._records, p.order)
        if not (burnside_from_cyclotomic(phi, p)
                == burnside_from_cyclotomic(phi, old) == rep.reduced):
            bad.append("burnside_from_cyclotomic")
    return bad


def differs_from_direct_loop(rep):
    """Whether a zeta report differs anywhere in its JSON text, audit
    order included, from the full subset loop's over the same group."""
    direct = direct_equivariant_zeta(rep.polynomial, rep.group)
    return json.dumps(rep.to_json()) != json.dumps(direct.to_json())


def lattice_mismatches(subgroups, terms, sampled):
    """Counts (duals, meet pairs, containment tests, mismatches) of the
    dual of every subgroup, and its dual back, against ``inverse_dual``,
    and of the meet of each sampled (subgroup, term) pair, key and order,
    against ``hnf_meet`` and the containment of each in the other against
    ``solve_contains``.  Each is also computed on a fresh presentation of
    the same constraint, which is never listed and so names each key on
    first lookup, and checked against the triangular oracles
    (``triangular_dual``, ``triangular_meet``, ``triangular_contains``).
    Pair (i, j) of the i-th subgroup and the j-th term is sampled when
    ``sampled(i, j)``."""
    fresh = GroupPresentation(subgroups[0].presentation.constraint)
    plain = {h: SubgroupKey(fresh, h.basis) for h in subgroups + terms}
    pairs = mismatches = 0
    for h in subgroups:
        dual, unlisted = dual_subgroup(h), dual_subgroup(plain[h])
        oracle = triangular_dual(h)
        mismatches += (dual != inverse_dual(h) or unlisted != oracle
                       or dual.order != oracle.order
                       or unlisted.order != oracle.order
                       or dual_subgroup(dual) != h
                       or dual_subgroup(unlisted) != plain[h])
    for i, h in enumerate(subgroups):
        for j, k in enumerate(terms):
            if not sampled(i, j):
                continue
            pairs += 1
            meet, oracle = subgroup_meet(h, k), hnf_meet(h, k)
            unlisted = subgroup_meet(plain[h], plain[k])
            reference = triangular_meet(h, k)
            mismatches += (meet != oracle or meet.order != oracle.order
                           or unlisted != reference
                           or unlisted.order != reference.order
                           or h.contains(k) != solve_contains(h, k)
                           or k.contains(h) != solve_contains(k, h)
                           or plain[h].contains(plain[k])
                           != triangular_contains(h, k)
                           or plain[k].contains(plain[h])
                           != triangular_contains(k, h))
    assert fresh._index.listed is None and fresh.dual()._index.listed is None
    return len(subgroups), pairs, 2 * pairs, mismatches


def composition_counts(batch):
    """(sides, sides that are sums, sides whose report differs from the
    full subset loop's) over the records of a batch."""
    checked = sums = mismatches = 0
    for f, _, rep in sides(batch):
        checked += 1
        sums += len(_blocks_of(f)) > 1
        mismatches += differs_from_direct_loop(rep)
    return checked, sums, mismatches


def composed_fact_mismatches(rep):
    """The facts of a zeta report composed from its atoms' records that
    differ from the forms they replaced: the classical zeta from
    ``element_zeta`` of the monodromy (of a fresh copy of the polynomial,
    so its weights are not the composed ones) on the equivariant zeta,
    the polynomial's weights from the ``Fraction`` oracle
    (``fraction_weights``), and each audit key's carried order from a
    fresh ``SubgroupKey``."""
    f, p = rep.polynomial, rep.group
    fresh = InvertiblePolynomial(f.exponents)
    bad = []
    if rep.classical != element_zeta(monodromy_element(fresh, p),
                                     rep.equivariant):
        bad.append("classical")
    if f.weights != fraction_weights(fresh.exponents):
        bad.append("weights")
    for t in rep.subset_terms:
        if t.isotropy.order != SubgroupKey(p, t.isotropy.basis).order:
            bad.append(f"order of {t.indices}")
    return bad


def composed_fact_counts(batch):
    """(sides, sides with a composed fact that differs) over the records
    of a batch."""
    checked = mismatches = 0
    for _, _, rep in sides(batch):
        checked += 1
        mismatches += bool(composed_fact_mismatches(rep))
    return checked, mismatches


def composed_group_mismatches(f, atoms, dual_first=False,
                              max_listed=None):
    """Where the presentation of the sum ``f`` composed from its blocks'
    records in ``atoms`` differs from ``GroupPresentation(E)``, on both
    sides, the transposed one first when ``dual_first``: U and V unset
    before first use; the order, invariant factors and ambient basis;
    the generators, the elements in order and every subgroup (for a
    group of order at most ``max_listed``, when given; past
    MAX_LISTED_SUBGROUPS, the subgroup count and that both refuse the
    listing); and then U and V, filled on first use.  Returns
    (mismatches, subgroups)."""
    composed = _symmetry_group(f, atoms)
    fresh = GroupPresentation(f.exponents)
    pairs = [("direct", composed, fresh),
             ("transposed", composed.dual(), fresh.dual())]
    if dual_first:
        pairs.reverse()
    bad = [f"{side}: transforms before first use"
           for side, mine, _ in pairs
           if mine._u is not None or mine._gens is not None]
    subgroups = 0
    for side, mine, theirs in pairs:
        if (mine.order, mine.invariant_factors, mine.ambient_basis) != (
                theirs.order, theirs.invariant_factors,
                theirs.ambient_basis):
            bad.append(f"{side}: order, factors or ambient basis")
        if ([g.sort_key() for g in mine.generators()]
                != [g.sort_key() for g in theirs.generators()]):
            bad.append(f"{side}: generators")
        if max_listed is None or mine.order <= max_listed:
            if ([g.sort_key() for g in mine.elements()]
                    != [g.sort_key() for g in theirs.elements()]):
                bad.append(f"{side}: elements")
            count = subgroup_count(mine)
            if count != subgroup_count(theirs):
                bad.append(f"{side}: subgroup count")
            if count <= MAX_LISTED_SUBGROUPS:
                built = enumerate_subgroups(mine)
                subgroups += len(built)
                if built != enumerate_subgroups(theirs):
                    bad.append(f"{side}: subgroups")
            else:
                for q in (mine, theirs):
                    try:
                        enumerate_subgroups(q)
                        bad.append(f"{side}: listed past the bound")
                    except ResourceBoundError:
                        pass
        if mine._transforms() != theirs._transforms():
            bad.append(f"{side}: U and V")
    return bad, subgroups


def composed_group_counts(polynomials, atoms):
    """(sums, subgroups, sums with a mismatch) of
    ``composed_group_mismatches`` over the sums among ``polynomials``."""
    sums = subgroups = mismatches = 0
    for f in polynomials:
        if len(_blocks_of(f)) > 1:
            bad, count = composed_group_mismatches(f, atoms)
            sums += 1
            subgroups += count
            mismatches += bool(bad)
    return sums, subgroups, mismatches


def dual_map_mismatches(rep, rep_t):
    """(terms, terms whose dual under the blocks' dual maps is wrong) over
    the reduced zeta of a report: each term's image, the term of the
    transposed report ``rep_t`` that the maps give, must have the key
    ``dual_subgroup`` gives on a fresh Smith-form presentation of the
    whole matrix, over the report's dual side, with its order."""
    p = rep.group
    fresh = GroupPresentation(p.constraint)
    maps = [record.dual_map(partner)
            for record, partner in zip(rep._records, rep_t._records)]
    keys_t = dict(zip(rep_t._terms, rep_t.reduced.terms))
    mismatches = 0
    for combo, key in zip(rep._terms, rep.reduced.terms):
        dual = keys_t.get(tuple(m[i] for m, i in zip(maps, combo)))
        mismatches += (dual is None or dual.presentation is not p.dual()
                       or dual != dual_subgroup(SubgroupKey(fresh, key.basis))
                       or dual.order != SubgroupKey(p.dual(),
                                                    dual.basis).order)
    return len(rep._terms), mismatches


def dual_map_counts(batch):
    """(sum sides, their terms, their terms with a wrong dual, single
    sides' terms with a wrong dual) of ``dual_map_mismatches`` over the
    records of a batch, each side against the other."""
    sums = terms = mismatches = singles = 0
    for record in batch.records:
        rep, rep_t = record.theorem.rhs_report, record.theorem.lhs_report
        for side, other in ((rep, rep_t), (rep_t, rep)):
            count, bad = dual_map_mismatches(side, other)
            if len(side._records) > 1:
                sums += 1
                terms += count
                mismatches += bad
            else:
                singles += bad
    return sums, terms, mismatches, singles


def label_map_counts(pairs):
    """(merged subgroups, those the complement lemma gives no dual,
    verdicts that fall back to the built transform) over the pairs of
    zeta reports (rep, rep_t) given, each side against the other: each
    merged subgroup's label, the partner's merged subgroup at the
    complement of its rows, must pass the support test
    (``AtomRecord.dual_map``), and the check must then decide on the
    blocks alone."""
    merged = missed = 0
    with mock.patch.object(zeta, "saito_dual",
                           side_effect=saito_dual) as built:
        for rep, rep_t in pairs:
            for side, other in ((rep, rep_t), (rep_t, rep)):
                for record, partner in zip(side._records, other._records):
                    dual_map = record.dual_map(partner)
                    merged += len(dual_map)
                    missed += dual_map.count(None)
                assert verify_zeta_duality(pair_over(side, other)).equal
    return merged, missed, built.call_count


def label_test_counts(pairs):
    """(labels, labels on which the support test ``_is_dual`` and the
    product pairing ``product_pairing_is_dual`` differ, shifted labels
    the support test accepts, shifted labels the product pairing
    accepts) over the pairs of zeta reports given, each side against the
    other.  A label is the partner's merged subgroup at the complement of
    the rows of a merged subgroup (``AtomRecord._labels``); shifted, it
    moves to the partner's next merged position, which names another
    subgroup when the partner has more than one."""
    labels = differ = shifted = shifted_oracle = 0
    for rep, rep_t in pairs:
        for side, other in ((rep, rep_t), (rep_t, rep)):
            for record, partner in zip(side._records, other._records):
                q, merged_t = record.presentation, partner.merged
                for (rows, _, _, index), j in zip(record.merged,
                                                  record._labels(partner)):
                    labels += 1
                    if j is None:  # no label: counted by label_map_counts
                        continue
                    candidates = [j, (j + 1) % len(merged_t)]
                    if len(merged_t) == 1:
                        candidates.pop()
                    for k, at in enumerate(candidates):
                        dual_rows, _, _, dual_index = merged_t[at]
                        test = _is_dual(q, rows, index, dual_rows,
                                        dual_index)
                        oracle = product_pairing_is_dual(
                            q, rows, index, dual_rows, dual_index)
                        if k:
                            shifted += test
                            shifted_oracle += oracle
                        else:
                            differ += test != oracle
    return labels, differ, shifted, shifted_oracle


def smith_weight_mismatches(record):
    """Where the weights of an atom record, and those read off the Smith
    form of its presentation and of that presentation's dual
    (``smith_weights``), differ from the ``Fraction`` oracle's
    (``fraction_weights``) of its block and of the block's transpose."""
    q = record.presentation
    e = q.constraint
    bad = []
    if record.weights != fraction_weights(e):
        bad.append("record")
    for side, g in ((q, e), (q.dual(), e.transpose())):
        if smith_weights(*side._transforms(), side.invariant_factors) != \
                fraction_weights(g):
            bad.append(f"{side!r}")
    return bad


def report_pairs(batch):
    """(rep, rep_t) for every polynomial of a batch."""
    return [(record.theorem.rhs_report, record.theorem.lhs_report)
            for record in batch.records]


def negated(rep):
    """The zeta report ``rep`` with the merged coefficients of its last
    block negated, on a copy of that block's record: each of its terms
    is negated."""
    last = copy.copy(rep._records[-1])
    last.merged = tuple((rows, -c, r, index)
                        for rows, c, r, index in last.merged)
    return dataclasses.replace(rep, _records=rep._records[:-1] + (last,))


def verdict_counts(batch):
    """(checks, checks that hold, verdicts of ``verify_zeta_duality``
    that differ from comparing the built elements, block-wise verdicts
    that differ from the term-by-term ``term_verdict``) over the records
    of a batch: each polynomial with its transposed side as the batch made
    it and with that side ``negated``."""
    checked = holds = mismatches = split = 0
    for record in batch.records:
        rep, rep_t = record.theorem.rhs_report, record.theorem.lhs_report
        sign = -1 if rep.polynomial.nvars % 2 else 1
        for side_t in (rep_t, negated(rep_t)):
            pair = pair_over(rep, side_t)
            oracle = side_t.reduced == sign * saito_dual(rep.reduced)
            checked += 1
            holds += oracle
            mismatches += verify_zeta_duality(pair).equal != oracle
            split += (zeta._dual_by_blocks(rep._records, side_t._records,
                                           sign)
                      != term_verdict(rep, side_t, sign))
    return checked, holds, mismatches, split


def record_mismatches(record):
    """(entries, mismatches) of an atom record against the forms its
    entries replaced: each entry's basis rows and index against
    ``isotropy_subgroup`` over the record's presentation, its monodromy
    order against ``_coset_order`` and, every fifth entry, against
    ``divisor_coset_order``; and for each contributing (I, R) the block
    fact the entries rest on: E[R, J] = 0 and
    |det E| = |det E[R, I]| * |det E[R', J]| for J the variables off I
    and R' the rows off R."""
    q = record.presentation
    e = q.constraint
    n, d = e.nrows, q.order
    h = tuple(w % d for w in record.weights.canonical_weights)
    g = GroupElement._wrap(q, h)
    bad = []
    for k, (subset, rows_in, rows, r, index) in enumerate(record.entries):
        iso = isotropy_subgroup(q, subset)
        if (rows, index, r) != (iso.basis.rows, iso.index,
                                _coset_order(iso.basis, h)):
            bad.append(f"entry {subset}")
        if k % 5 == 0 and r != divisor_coset_order(g, iso):
            bad.append(f"divisor search at {subset}")
        if not subset:
            continue
        cols = [j for j in range(n) if j not in subset]
        out = [i for i in range(n) if i not in rows_in]
        if any(e.entry(i, j) for i in rows_in for j in cols):
            bad.append(f"E[R, J] at {subset}")
        inner = abs(determinant(e.submatrix(rows_in, subset)))
        outer = abs(determinant(e.submatrix(out, cols))) if cols else 1
        if abs(determinant(e)) != inner * outer:
            bad.append(f"block determinants at {subset}")
    return len(record.entries), bad


def torus_euler_mismatches(rep):
    """The audit terms of a zeta report whose torus Euler number, read on
    demand, differs from (-1)^(|I|-1) det E[R, I] of the whole matrix,
    R the rows supported inside I, both sorted."""
    e = rep.polynomial.exponents
    n = e.nrows
    bad = []
    for t in rep.subset_terms:
        rows_in = [i for i in range(n)
                   if all(e.entry(i, j) == 0
                          for j in range(n) if j not in t.indices)]
        sign = 1 if len(t.indices) % 2 else -1
        if t.torus_euler != sign * determinant(e.submatrix(rows_in,
                                                           t.indices)):
            bad.append(t.indices)
    return bad


def record_counts(reports):
    """(distinct records, their entries, mismatches of
    ``record_mismatches``, reports whose audit has a torus Euler number
    off ``torus_euler_mismatches``) over the zeta reports given."""
    records = {}
    audits = 0
    for rep in reports:
        for record in rep._records:
            records[id(record)] = record
        audits += bool(torus_euler_mismatches(rep))
    entries = mismatches = 0
    for record in records.values():
        count, bad = record_mismatches(record)
        entries += count
        mismatches += len(bad)
    return len(records), entries, mismatches, audits


def complement_rule_counts(polynomials):
    """(blocks, blocks whose transpose's contributing subsets are not the
    complements of theirs) over the blocks of ``polynomials`` and of
    their transposes."""
    blocks = mismatches = 0
    for f in polynomials:
        for g in (f.exponents, f.exponents.transpose()):
            for block in _components(g):
                e = block.matrix
                blocks += 1
                mismatches += (
                    _complement_subsets(_contributing_subsets(e), e.nrows)
                    != _contributing_subsets(e.transpose()))
    return blocks, mismatches


# x1^2 + x1*x2^2 + ... + x1*x9^2: one block outside the Kreuzer-Skarke
# classes, with 2^8 + 1 entries on each side.
STAR9 = " + ".join(["x1^2"] + [f"x1*x{i}^2" for i in range(2, 10)])


@pytest.fixture(scope="module")
def batch55_sample():
    """One batch over a seeded sample of the (5,5) sums corpus."""
    corpus, _ = generate_corpus(5, 5, include_sums=True, sample=150,
                                seed=12)
    return run_batch(corpus, keep_records=True)


@pytest.fixture(scope="module")
def batch55_ci():
    """One batch over the sample of the (5,5) sums corpus that CI pins,
    ``enumerate --max-vars 5 --max-exp 5 --sums --sample 300 --seed 3``."""
    corpus, _ = generate_corpus(5, 5, include_sums=True, sample=300, seed=3)
    return run_batch(corpus, keep_records=True)


def outcome(solver, *args):
    """The solver's result, or the type of the error it raised."""
    try:
        return solver(*args)
    except (SingularMatrixError, ValueError) as exc:
        return type(exc)


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

    def test_scaled_inverse_matches_fraction_elimination(self, batch45):
        # What the package inverts for a corpus polynomial: its exponent
        # matrix E with |det E| for the weights, and C*B with d^2 for each
        # reduced zeta term B, which oracles.inverse_dual inverts (upper
        # triangular for chains, otherwise the HNF route).
        checked = mismatches = 0
        for f, p, rep in sides(batch45):
            dd = p.order ** 2
            inputs = [(f.exponents, abs(f.det))]
            inputs += [(p.constraint * h.basis, dd)
                       for h in rep.reduced.terms]
            for m, s in inputs:
                checked += 1
                mismatches += (scaled_inverse(m, s)
                               != fraction_scaled_inverse(m, s))
        assert (checked, mismatches) == (24472, 0)

    def test_generating_root_closed_form_matches_listing(self, batch45):
        # Both sides of every cyclic corpus group: the existence test and
        # the cyclotomic product against the first generating listed root.
        checked = mismatches = 0
        for _, p, rep in sides(batch45):
            if not p.is_cyclic:
                continue
            checked += 1
            oracle = listed_root_zeta(rep)
            exists, phi = root_closed_forms(rep)
            mismatches += (exists != (oracle is not None)
                           or exists and phi != oracle)
        assert (checked, mismatches) == (1664, 0)

    def test_sum_facts_match_the_composed_group(self, batch45):
        # Every corpus member, both sides: what the root duality reads
        # off the blocks' records, against the group, weights and report
        # of the whole polynomial.  The records are those the batch made.
        mismatches = [bad for v in batch45.records
                      for bad in sum_fact_mismatches(v.theorem._pair)]
        assert (len(batch45.records), mismatches) == (1576, [])

    def test_root_count_matches_listing(self, batch45):
        # Every corpus group, both sides; 12 non-cyclic sides have roots.
        # The `roots` command formats the sorted vectors of
        # ``_root_vectors`` with no element per root: the same texts as
        # the listed elements.
        checked = mismatches = non_cyclic_with_roots = 0
        for f, p, _ in sides(batch45):
            listed = coordinate_roots(f, p)
            count = root_count(f, p)
            vectors = _root_vectors(f, p)
            checked += 1
            mismatches += (count != len(listed)
                           or geometric_roots(f, p) != listed
                           or vectors != [r.scaled() for r in listed]
                           or _format_vectors(vectors, p.order)
                           != [str(r) for r in listed])
            non_cyclic_with_roots += bool(count) and not p.is_cyclic
        assert (checked, mismatches, non_cyclic_with_roots) == (3152, 0, 12)

    def test_subgroups_match_join_closure(self, batch45):
        # Every distinct corpus group of order <= 200, both sides: the same
        # keys in the same order.
        groups = distinct_groups(batch45, max_order=200)
        subgroups = mismatches = 0
        for p in groups:
            built = enumerate_subgroups(p)
            subgroups += len(built)
            mismatches += built != join_closure_subgroups(p)
        assert (len(groups), subgroups, mismatches) == (2331, 48191, 0)

    def test_subgroup_lattice_matches_replaced_forms(self, batch45):
        # Every distinct corpus group of order <= 200, both sides, on a
        # fresh presentation whose caches and index go with it: the dual
        # of each subgroup, and the meet and both containments of a
        # rotating quarter of the (subgroup, equivariant zeta term) pairs,
        # every subgroup and every term among them, read off the index
        # of the listing and checked against the oracles, and on a second,
        # never listed presentation, which names each key on first
        # lookup, against the triangular oracles.  All 370,259 pairs take
        # about 50 s.
        reps = {}
        for _, p, rep in sides(batch45):
            if p.order <= 200:
                reps.setdefault(p.constraint, rep)
        totals = [len(reps), 0, 0, 0, 0]
        for rep in reps.values():
            p = rep.group
            fresh = GroupPresentation(p.constraint)
            counts = lattice_mismatches(
                enumerate_subgroups(fresh),
                sorted(rep.equivariant.terms, key=SubgroupKey.sort_key),
                lambda i, j: (i + j) % 4 == 0)
            totals[1:] = map(sum, zip(totals[1:], counts))
        assert totals == [2331, 48191, 92541, 185082, 0]

    def test_element_arithmetic_matches_rationals(self, batch45):
        # Every element of every distinct corpus group of order <= 200,
        # both sides, against each standard generator; the generators
        # themselves against rational elimination.
        groups = distinct_groups(batch45, max_order=200)
        checked = mismatches = 0
        for p in groups:
            gens = p.generators()
            refs = reference_generators(p)
            mismatches += sum(g.sort_key() != r.scaled(p.order)
                              for g, r in zip(gens, refs))
            for g in p.elements():
                checked += 1
                mismatches += bool(element_mismatches(g, gens, refs))
        assert (len(groups), checked, mismatches) == (2331, 213249, 0)

    def test_annihilator_pairs_match_dual_subgroup(self, batch45):
        # Every reduced zeta term H of every corpus polynomial against every
        # term K of the transposed side with |H|*|K| = d: the product
        # pairing against the dual lattice, and the support test of the
        # dual maps, which is sufficient, never accepting a K that is not
        # H~.  On these terms it accepts every dual: the dual of a term
        # of a sum is the product of its blocks' labels.
        checked = holds = mismatches = accepted = 0
        for rep, rep_t in report_pairs(batch45):
            p = rep.group
            for h in rep.reduced.terms:
                dual = dual_subgroup(h)
                for k in rep_t.reduced.terms:
                    if h.order * k.order != p.order:
                        continue
                    oracle = dual == k
                    test = _is_dual(p, h.basis.rows, h.index, k.basis.rows,
                                    k.index)
                    checked += 1
                    holds += oracle
                    accepted += test
                    mismatches += (product_pairing_is_dual(
                        p, h.basis.rows, h.index, k.basis.rows, k.index)
                        != oracle) + (test and not oracle)
        assert (checked, holds, accepted, mismatches) == (13716, 10660,
                                                          10660, 0)

    def test_complement_labels_pass_the_pairing(self, batch45,
                                                batch55_sample,
                                                batch55_ci):
        # Every merged subgroup of every block of both sides of both
        # corpora: the complement lemma names its dual, the support test
        # accepts it exactly when the product pairing does, and no verdict
        # builds the transform.  Each label moved to the partner's next
        # merged position is rejected by both tests.
        pairs = report_pairs(batch45)
        assert label_map_counts(pairs) == (16392, 0, 0)
        assert label_test_counts(pairs) == (16392, 0, 0, 0)
        for batch in (batch55_sample, batch55_ci):
            merged, missed, built = label_map_counts(report_pairs(batch))
            assert (missed, built) == (0, 0) and merged > 0

    def test_star_labels_pass_the_pairing(self):
        # x1^2 + x1*x2^2 + ... + x1*xn^2 for n <= 12, one block outside
        # the Kreuzer-Skarke classes with 2^(n-1) + 1 merged subgroups on
        # each side: the support test against the product pairing on
        # every label, and on a shifted one; for n <= 10, each term's dual
        # against dual_subgroup too.
        for n in range(1, 13):
            f = parse_polynomial(" + ".join(
                ["x1^2"] + [f"x1*x{i}^2" for i in range(2, n + 1)]))
            pair = DualPair(f)
            rep, rep_t = pair.report, pair.report_t
            labels = 2 * (2 ** (n - 1) + 1)
            assert label_map_counts([(rep, rep_t)]) == (labels, 0, 0)
            assert label_test_counts([(rep, rep_t)]) == (labels, 0, 0, 0)
            if n > 10:
                continue
            for side, other in ((rep, rep_t), (rep_t, rep)):
                assert dual_map_mismatches(side, other) == (
                    len(side.reduced.terms), 0)

    def test_one_smith_form_per_pair(self, batch45):
        # Every corpus side: the dual, generators and SNF coordinates of
        # the one factorization, and 46,480 generator pairs.
        checked = pairs = mismatches = 0
        for _, p, _ in sides(batch45):
            checked += 1
            pairs += p.rank ** 2
            mismatches += bool(factorization_mismatches(p))
        assert (checked, pairs, mismatches) == (3152, 46480, 0)

    def test_record_weights_match_canonical_weights(self, batch45,
                                                    batch55_ci):
        # Every atom record of both corpora, both sides: the weights read
        # off the Smith form of its presentation, and those of the
        # presentation's dual, against the ``Fraction`` oracle's of its
        # block and of the block's transpose.
        counts = []
        for batch in (batch45, batch55_ci):
            records = {id(r): r for _, _, rep in sides(batch)
                       for r in rep._records}
            counts.append(len(records))
            for record in records.values():
                assert smith_weight_mismatches(record) == []
        assert counts[0] == 874 and counts[1] > 0

    def test_weights_match_cramer(self, batch45):
        checked = mismatches = 0
        for f, _, _ in sides(batch45):
            checked += 1
            ws = f.weights
            mismatches += cramer_weights(f.exponents) != (
                ws.canonical_weights, ws.canonical_degree)
        assert (checked, mismatches) == (3152, 0)

    def test_quotient_data_matches_second_smith_form(self, batch45):
        # Every corpus side: its subgroups and, when cyclic, the
        # correspondence, from both generator sets.
        checked = mismatches = 0
        for f, p, _ in sides(batch45):
            checked += 1
            mismatches += bool(quotient_data_mismatches(f, p))
        assert (checked, mismatches) == (3152, 0)

    def test_zeta_reports_match_direct_loop(self, batch45):
        # Every corpus side, as the batch assembled it from its shared
        # atom records.
        assert composition_counts(batch45) == (3152, 2264, 0)

    def test_interleaved_sums_match_direct_loop(self, corpus45):
        # Every corpus45 sum with its monomials and its variables
        # shuffled, so that its blocks interleave, through one batch: the
        # reports against the full subset loop, with the signs of the
        # shuffles in each torus Euler characteristic, and the duals
        # through the blocks' dual maps.
        rng = random.Random(1132)
        sums = [permuted(f, rng) for f in corpus45
                if len(_components(f.exponents)) > 1]
        batch = run_batch(sums, keep_records=True)
        assert batch.ok and batch.theorem_pass == len(sums) == 1132
        assert composition_counts(batch) == (2264, 2264, 0)
        assert dual_map_counts(batch) == (2264, 17720, 0, 0)

    def test_sums_sample_zeta_reports_match_direct_loop(self,
                                                        batch55_sample):
        # A seeded sample of the (5,5) sums corpus, through one batch.
        assert composition_counts(batch55_sample) == (300, 250, 0)

    def test_composed_facts_match_replaced_forms(self, batch45):
        # Every corpus side: the classical zeta by the lcm rule, the
        # weights of a sum from its atoms' and the key orders read off
        # the product of indices.
        assert composed_fact_counts(batch45) == (3152, 0)

    def test_sums_sample_composed_facts_match_replaced_forms(
            self, batch55_sample):
        assert composed_fact_counts(batch55_sample) == (300, 0)

    def test_composed_groups_match_smith_form(self, corpus45):
        # Every corpus45 sum, both sides, composed from a fresh cache.
        assert composed_group_counts(corpus45, AtomRecords(4)) == (
            1132, 76204, 0)

    def test_sums_sample_composed_groups_match_smith_form(
            self, batch55_sample):
        polynomials = [r.polynomial for r in batch55_sample.records]
        assert composed_group_counts(polynomials, AtomRecords(5)) == (
            125, 22778, 0)

    def test_carried_duals_match_dual_subgroup(self, batch45):
        # Every term of every corpus side, sums and single blocks: its
        # dual through the blocks' dual maps against dual_subgroup on the
        # whole matrix.
        assert dual_map_counts(batch45) == (2264, 17720, 0, 0)

    def test_sums_sample_carried_duals_match_dual_subgroup(
            self, batch55_sample):
        assert dual_map_counts(batch55_sample) == (250, 2696, 0, 0)

    def test_verdicts_match_built_transform(self, batch45):
        # Every corpus polynomial, with its transposed side and with that
        # side negated: the check on the blocks against comparing the
        # built elements with the transform, and against the check term
        # by term.
        assert verdict_counts(batch45) == (3152, 1576, 0, 0)

    def test_sums_sample_verdicts_match_built_transform(self,
                                                        batch55_sample,
                                                        batch55_ci):
        assert verdict_counts(batch55_sample) == (300, 150, 0, 0)
        assert verdict_counts(batch55_ci) == (600, 300, 0, 0)

    def test_record_entries_match_isotropy(self, batch45):
        # Every entry of every record the batch made, both sides, and
        # every side's audit.
        reports = [rep for _, _, rep in sides(batch45)]
        assert record_counts(reports) == (874, 3572, 0, 0)

    def test_sums_sample_record_entries_match_isotropy(self,
                                                       batch55_sample):
        reports = [rep for _, _, rep in sides(batch55_sample)]
        assert record_counts(reports)[2:] == (0, 0)

    def test_star_record_entries_match_isotropy(self):
        pair = DualPair(parse_polynomial(STAR9))
        reports = [pair.report, pair.report_t]
        assert record_counts(reports) == (2, 2 * (2 ** 8 + 1), 0, 0)

    def test_transpose_takes_the_complements(self, corpus45,
                                             batch55_sample):
        assert complement_rule_counts(corpus45) == (6116, 0)
        polynomials = [r.polynomial for r in batch55_sample.records]
        assert complement_rule_counts(polynomials)[1] == 0


@st.composite
def exponent_matrices(draw):
    """An invertible polynomial with a nonsingular 2x2 to 4x4 exponent
    matrix, entries 0 to 5, |det| <= 96.  Half are direct sums of two
    blocks, where non-cyclic groups are common."""
    n = draw(st.integers(2, 4))
    rows = [[draw(st.sampled_from([0, 0, 1, 2, 3, 4, 5])) for _ in range(n)]
            for _ in range(n)]
    if draw(st.booleans()):
        k = draw(st.integers(1, n - 1))
        rows = [[x if (i < k) == (j < k) else 0 for j, x in enumerate(r)]
                for i, r in enumerate(rows)]
    det = determinant(rows)
    assume(det != 0 and abs(det) <= 96)
    return InvertiblePolynomial(rows)


# Blocks that are not loops or chains: a non-loop/chain block, linear and
# unimodular blocks (d = 1) and blocks with a negative determinant; and
# chains whose monodromy orders share factors, so that the lcm rule and
# the product differ (x^2*y + y^3 has order 3 and its transpose 6, the
# other two and their transposes 4).
SPECIAL_ATOMS = (
    ((2, 1, 1), (0, 2, 0), (0, 0, 2)),  # x^2*y*z + y^2 + z^2
    ((1, 0), (0, 2)),                   # x + y^2
    ((1, 1), (1, 2)),                   # x*y + x*y^2, det 1
    ((1, 2), (3, 0)),                   # x*y^2 + x^3, det -6
    ((0, 1), (1, 0)),                   # y + x, det -1
    ((1,),),                            # x
    ((2, 1), (0, 3)),                   # x^2*y + y^3, order 3
    ((2, 1), (0, 2)),                   # x^2*y + y^2, order 4
    ((4,),),                            # x^4, order 4
)


@st.composite
def atoms(draw):
    """One nonsingular block: a special one or a random 1x1 to 3x3 with
    entries 0 to 4."""
    if draw(st.booleans()):
        return draw(st.sampled_from(SPECIAL_ATOMS))
    m = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.integers(0, 4), min_size=m,
                                  max_size=m), min_size=m, max_size=m))
    assume(determinant(rows) != 0)
    return rows


def block_sum(blocks):
    """The polynomial whose exponent matrix is block diagonal with the
    given blocks, in order."""
    n = sum(len(b) for b in blocks)
    rows = []
    offset = 0
    for b in blocks:
        for r in b:
            rows.append([0] * offset + list(r)
                        + [0] * (n - offset - len(r)))
        offset += len(b)
    return InvertiblePolynomial(rows)


@st.composite
def block_sums(draw):
    """A direct sum of 2 to 4 atoms on at most 7 variables, sometimes
    with its first atom repeated."""
    blocks = draw(st.lists(atoms(), min_size=2, max_size=4))
    if draw(st.booleans()):
        blocks.append(blocks[0])
    assume(sum(len(b) for b in blocks) <= 7)
    return block_sum(blocks)


@st.composite
def sparse_sums(draw):
    """A direct sum of one to three ``sparse_invertible`` blocks on at
    most 9 variables, in order."""
    blocks = draw(st.lists(sparse_invertible(), min_size=1, max_size=3))
    assume(sum(map(len, blocks)) <= 9)
    return block_sum(blocks)


# One atom cache that every composition example shares, as a batch does
# whose largest polynomial has 7 variables.
BATCH_ATOMS = AtomRecords(7)


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


@st.composite
def solver_matrices(draw):
    """A square 1x1 to 5x5 integer matrix of one of five shapes: general,
    upper triangular, lower triangular, unimodular, or singular."""
    n = draw(st.integers(1, 5))
    shape = draw(st.sampled_from(
        ["general", "upper", "lower", "unimodular", "singular"]))
    entries = st.integers(-4, 6)
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if shape == "upper":
        rows = [[x if j >= i else 0 for j, x in enumerate(r)]
                for i, r in enumerate(rows)]
    elif shape == "lower":
        rows = [[x if j <= i else 0 for j, x in enumerate(r)]
                for i, r in enumerate(rows)]
    elif shape == "unimodular":
        # (unit lower) * (unit upper), columns permuted: |det| = 1.
        lo = IntMatrix([[x if j < i else int(i == j) for j, x in enumerate(r)]
                        for i, r in enumerate(rows)])
        up = IntMatrix([[x if j > i else int(i == j) for j, x in enumerate(r)]
                        for i, r in enumerate(rows)])
        perm = draw(st.permutations(range(n)))
        rows = [[r[j] for j in perm] for r in (lo * up).rows]
    elif shape == "singular":
        # The last row is an integer combination of the others (zero for
        # n = 1).
        a = draw(st.lists(entries, min_size=n - 1, max_size=n - 1))
        rows[-1] = [sum(c * r[j] for c, r in zip(a, rows)) for j in range(n)]
    return IntMatrix(rows)


@st.composite
def meet_groups(draw):
    """A presentation of a nonsingular n x n matrix, n <= 5: a random one
    with |det| <= 10,000, or a loop, chain or diagonal matrix of order
    near 4e12."""
    n = draw(st.integers(1, 5))
    shape = draw(st.sampled_from(["random", "random", "loop", "chain",
                                  "diagonal"]))
    if shape == "random":
        rows = draw(st.lists(st.lists(st.integers(-3, 6), min_size=n,
                                      max_size=n), min_size=n, max_size=n))
        det = determinant(rows)
        assume(det != 0 and abs(det) <= 10_000)
    else:
        a = round(4e12 ** (1 / n))
        rows = [[a if i == j else 0 for j in range(n)] for i in range(n)]
        if n > 1 and shape != "diagonal":
            for i in range(n if shape == "loop" else n - 1):
                rows[i][(i + 1) % n] = 1
    return GroupPresentation(rows)


def drawn_subgroups(p, data):
    """The full and trivial subgroups of ``p``, four generated by one or
    two drawn elements (random combinations of the generators, times a
    drawn small factor), and one drawn isotropy subgroup."""
    gens = p.generators()
    subgroups = [full_subgroup(p), trivial_subgroup(p)]
    for _ in range(4):
        elements = []
        for _ in range(data.draw(st.integers(1, 2))):
            g = p.identity()
            for x in gens:
                g = g + data.draw(st.integers(0, p.order - 1)) * x
            elements.append(data.draw(st.sampled_from([1, 2, 3, 6, 1000]))
                            * g)
        subgroups.append(subgroup_generated_by(p, elements))
    subgroups.append(isotropy_subgroup(
        p, data.draw(st.sets(st.integers(0, p.rank - 1)))))
    return subgroups


class TestRandomMatrices:
    @settings(max_examples=150, deadline=None)
    @given(meet_groups(), st.data())
    def test_meet_matches_dual_lattice_hnfs(self, p, data):
        # Every ordered pair of drawn subgroups, equal, full and trivial
        # operands among them, on a fresh presentation: the merged meet is
        # the one of three dual-lattice HNFs, with its order.
        subgroups = drawn_subgroups(p, data)
        for h in subgroups:
            for k in subgroups:
                meet, oracle = subgroup_meet(h, k), hnf_meet(h, k)
                assert meet == oracle and meet.order == oracle.order
                assert subgroup_meet(k, h) == meet

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

    @settings(max_examples=150, deadline=None)
    @given(small_groups())
    # Z2^4 and Z4^3: the deepest trees of choices |det| <= 64 allows.
    @example(GroupPresentation(IntMatrix.diagonal([2, 2, 2, 2])))
    @example(GroupPresentation(IntMatrix.diagonal([4, 4, 4])))
    def test_subgroups_match_join_closure(self, p):
        assert enumerate_subgroups(p) == join_closure_subgroups(p)

    @settings(max_examples=150, deadline=None)
    @given(small_groups())
    def test_element_sort_key_orders_like_fractions(self, p):
        elements = list(p.elements())
        assert sorted(elements, key=lambda g: g.sort_key()) == \
            sorted(elements, key=lambda g: g.coords.fractions())

    @settings(max_examples=150, deadline=None)
    @given(small_groups())
    @example(GroupPresentation(IntMatrix.diagonal([4, 4, 4])))
    def test_element_arithmetic_matches_rationals(self, p):
        # Every pair of elements, and the generators against rational
        # elimination.
        elements = list(p.elements())
        assert len(set(elements)) == p.order
        refs = [RationalElement(g.coords.numerators, g.coords.denominator)
                for g in elements]
        for g in elements:
            assert element_mismatches(g, elements, refs) == []
        assert [g.sort_key() for g in p.generators()] == \
            [r.scaled(p.order) for r in reference_generators(p)]

    @settings(max_examples=150, deadline=None)
    @given(small_groups())
    # Z2^4: many subgroups of each order, most of them not each other's
    # duals.
    @example(GroupPresentation(IntMatrix.diagonal([2, 2, 2, 2])))
    def test_pairing_check_matches_dual_subgroup(self, p):
        # Every subgroup H against every K of the dual side with
        # |H|*|K| = d: the product pairing against the dual lattice and
        # against the pairing kernel; the support test of the dual maps
        # accepts only the dual.
        d = p.order
        subgroups_t = enumerate_subgroups(p.dual())
        for h in enumerate_subgroups(p):
            dual = dual_subgroup(h)
            kernel = kernel_dual_all_pairs(h)
            for k in subgroups_t:
                if h.order * k.order == d:
                    args = p, h.basis.rows, h.index, k.basis.rows, k.index
                    assert product_pairing_is_dual(*args) == (
                        dual == k) == (kernel == k)
                    assert not _is_dual(*args) or dual == k

    @settings(max_examples=150, deadline=None)
    @given(small_groups())
    @example(GroupPresentation(IntMatrix.diagonal([2, 2, 2, 2])))
    def test_subgroup_lattice_matches_replaced_forms(self, p):
        # Every subgroup's dual; the meet and both containments of every
        # pair of subgroups, from the index and on a never listed copy;
        # every element in every subgroup, against both oracles.
        subgroups = enumerate_subgroups(p)
        n = len(subgroups)
        assert lattice_mismatches(subgroups, subgroups,
                                  lambda i, j: True) == (n, n * n,
                                                         2 * n * n, 0)
        for h in subgroups:
            for g in p.elements():
                assert h.contains_element(g) == \
                    solve_contains_element(h, g) == \
                    triangular_contains_element(h, g)

    @settings(max_examples=300, deadline=None)
    @given(solver_matrices(), st.data())
    def test_scaled_inverse_matches_fraction_elimination(self, m, data):
        det = determinant(m)
        scalar = data.draw(st.one_of(
            st.integers(0, 40),
            st.integers(-3, 3).map(lambda k: k * det)))
        assert outcome(scaled_inverse, m, scalar) == \
            outcome(fraction_scaled_inverse, m, scalar)

    @settings(max_examples=300, deadline=None)
    @given(solver_matrices(), st.data())
    def test_lattice_solve_matches_fraction_elimination(self, m, data):
        n = m.nrows
        coords = st.lists(st.integers(-20, 20), min_size=n, max_size=n)
        vector = data.draw(st.one_of(
            coords, coords.map(m.apply_to_vector)))
        assert outcome(lattice_solve, m, vector) == \
            outcome(fraction_lattice_solve, m, vector)

    @settings(max_examples=200, deadline=None)
    @given(exponent_matrices())
    # Z2 x Z2 without roots; Z2 x Z42 (x^3*y + y^5*x + z^2*w + w^3) with 4.
    @example(InvertiblePolynomial([[2, 0], [0, 2]]))
    @example(InvertiblePolynomial([[3, 1, 0, 0], [1, 5, 0, 0],
                                   [0, 0, 2, 1], [0, 0, 0, 3]]))
    def test_roots_closed_forms_match_listing(self, f):
        p = symmetry_group(f)
        brute = brute_roots(f, p)
        assert root_count(f, p) == len(brute)
        assert geometric_roots(f, p) == coordinate_roots(f, p) == brute
        assert _root_vectors(f, p) == [r.scaled() for r in brute]
        if p.is_cyclic:
            rep = equivariant_zeta(f, p)
            oracle = listed_root_zeta(rep)
            exists, phi = root_closed_forms(rep)
            assert exists == (oracle is not None)
            assert phi == oracle or oracle is None

    @settings(max_examples=200, deadline=None)
    @given(small_groups())
    @example(GroupPresentation(IntMatrix.diagonal([2, 2, 2, 2])))
    def test_one_smith_form_per_pair(self, p):
        assert factorization_mismatches(p) == []
        assert factorization_mismatches(p.dual()) == []

    @settings(max_examples=200, deadline=None)
    @given(exponent_matrices())
    # det E = -6: the weights of x*y^2 + x^3 are positive.
    @example(InvertiblePolynomial([[1, 2], [3, 0]]))
    def test_weights_and_quotient_data_match_replaced_forms(self, f):
        ws = f.weights
        assert cramer_weights(f.exponents) == (ws.canonical_weights,
                                               ws.canonical_degree)
        assert ws.canonical_degree == abs(f.det)
        for g, p in ((f, symmetry_group(f)),
                     (f.transpose(), symmetry_group(f).dual())):
            assert quotient_data_mismatches(g, p) == []

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(exponent_matrices(), block_sums()))
    # Torus Euler numbers 3, -6, -6, 6, 12, -12, -12, 24: a block outside
    # the Kreuzer-Skarke classes with a zero on its diagonal.
    @example(InvertiblePolynomial([[2, 0, 0, 3], [0, 2, 0, 3],
                                   [0, 0, 0, 3], [0, 0, 2, 2]]))
    @example(block_sum([SPECIAL_ATOMS[0], SPECIAL_ATOMS[3],
                        SPECIAL_ATOMS[4]]))
    def test_record_entries_match_isotropy(self, f):
        # Both sides, over a fresh record cache and over one a batch
        # shares; and the complement rule on every block.
        for atoms in (None, BATCH_ATOMS):
            pair = DualPair(f, atoms)
            reports = [pair.report, pair.report_t]
            assert record_counts(reports)[2:] == (0, 0)
        assert complement_rule_counts([f])[1] == 0

    @settings(max_examples=150, deadline=None)
    @given(sparse_invertible())
    @example([[2, 0, 0, 3], [0, 2, 0, 3], [0, 0, 0, 3], [0, 0, 2, 2]])
    def test_sparse_labels_pass_the_pairing(self, rows):
        # Invertible matrices of up to 7 variables, blocks and sums: the
        # complement lemma names every merged subgroup's dual, and each
        # term's dual agrees with dual_subgroup.
        pair = DualPair(InvertiblePolynomial(rows))
        rep, rep_t = pair.report, pair.report_t
        assert label_map_counts([(rep, rep_t)])[1:] == (0, 0)
        assert label_test_counts([(rep, rep_t)])[1:] == (0, 0, 0)
        for side, other in ((rep, rep_t), (rep_t, rep)):
            assert dual_map_mismatches(side, other) == (
                len(side.reduced.terms), 0)

    @settings(max_examples=150, deadline=None)
    @given(sparse_sums(), st.randoms(use_true_random=False))
    # Z4 + Z4 (x^2*y + y^2 twice): cyclic blocks, not a cyclic sum.
    @example(block_sum([((2, 1), (0, 2))] * 2), random.Random(0))
    # x, with a trivial group, beside the 3-loop of order 9.
    @example(block_sum([((1,),), ((2, 1, 0), (0, 2, 1), (1, 0, 2))]),
             random.Random(1))
    def test_sum_facts_match_the_composed_group(self, f, rng):
        # Sums of up to three invertible blocks, their variables and
        # monomials shuffled, over a fresh record cache and over one a
        # batch shares.
        g = permuted(f, rng)
        for atoms in (None, BATCH_ATOMS):
            assert sum_fact_mismatches(DualPair(g, atoms)) == []

    @settings(max_examples=150, deadline=None)
    @given(sparse_invertible())
    # det E = -6, on a zero diagonal.
    @example([[0, 2], [3, 0]])
    def test_smith_weights_match_canonical_weights(self, rows):
        # Invertible matrices of up to 7 variables, blocks and sums: the
        # records of both sides, and the whole matrix's Smith form.
        pair = DualPair(InvertiblePolynomial(rows))
        for rep in (pair.report, pair.report_t):
            for record in rep._records:
                assert smith_weight_mismatches(record) == []
        p = GroupPresentation(IntMatrix(rows))
        oracle = fraction_weights(IntMatrix(rows))
        assert smith_weights(*p._transforms(), p.invariant_factors) == \
            oracle == canonical_weights(InvertiblePolynomial(rows))


class TestAtomComposition:
    @settings(max_examples=150, deadline=None)
    @given(block_sums())
    @example(block_sum([((2,),)] * 3))
    @example(block_sum([((2, 1), (0, 3)), ((2, 1), (0, 3))]))
    @example(block_sum([SPECIAL_ATOMS[0], SPECIAL_ATOMS[3],
                        SPECIAL_ATOMS[4]]))
    # x^2*y + y^3 + z^2*w + w^2, and orders 4 and 4: lcm 4, product 16.
    @example(block_sum([SPECIAL_ATOMS[6], SPECIAL_ATOMS[7]]))
    @example(block_sum([SPECIAL_ATOMS[7], SPECIAL_ATOMS[8]]))
    # Unimodular summands, d_a = 1, around one of d = 4.
    @example(block_sum([SPECIAL_ATOMS[2], SPECIAL_ATOMS[8],
                        SPECIAL_ATOMS[4], SPECIAL_ATOMS[5]]))
    # Seven quadrics, (Z/2)^7: order 128, but 29,212 subgroups, past the
    # listing bound.
    @example(block_sum([((2, 0, 0), (0, 2, 0), (0, 0, 2)),
                        ((2, 0, 0), (0, 2, 0), (0, 0, 2)), ((2,),)]))
    def test_block_sums_match_direct_loop(self, f):
        p = symmetry_group(f)
        assert len(_components(f.exponents)) > 1
        # The composed group, each side filling U and V first once.
        for atoms, dual_first in ((AtomRecords(), False),
                                  (BATCH_ATOMS, True)):
            assert composed_group_mismatches(f, atoms, dual_first,
                                             max_listed=200)[0] == []
        for atoms in (None, BATCH_ATOMS):
            rep = equivariant_zeta(f, p, atoms)
            rep_t = equivariant_zeta(f.transpose(), p.dual(), atoms)
            for side, other in ((rep, rep_t), (rep_t, rep)):
                assert composed_fact_mismatches(side) == []
                assert not differs_from_direct_loop(side)
                assert dual_map_mismatches(side, other) == (
                    len(side.reduced.terms), 0)

    @pytest.mark.parametrize("text, blocks", [
        # (monomials, variables) of each block.  The first two and the
        # last two interleave: each is the sum of two blocks.
        ("x1^2*x3 + x2^3 + x3^3", [((0, 2), (0, 2)), ((1,), (1,))]),
        ("x^2*y + z^3 + y^3", [((0, 2), (0, 1)), ((1,), (2,))]),
        ("x^2*y + y^3 + z^2", [((0, 1), (0, 1)), ((2,), (2,))]),
        ("x^2 + y^2 + z^2 + w^2", [((0,), (0,)), ((1,), (1,)),
                                   ((2,), (2,)), ((3,), (3,))]),
        ("x*y + x*y^2 + z^3", [((0, 1), (0, 1)), ((2,), (2,))]),
        ("x^2*y + y^3 + z^2*w + w^2", [((0, 1), (0, 1)),
                                       ((2, 3), (2, 3))]),
        ("x^2*y + y^3 + z^5", [((0, 1), (0, 1)), ((2,), (2,))]),
        ("x1^2*x3 + x3^3 + x2^3", [((0, 1), (0, 2)), ((2,), (1,))]),
        ('{"E": [[0, 3], [2, 0]]}', [((1,), (0,)), ((0,), (1,))]),
    ])
    def test_fixed_cases_match_direct_loop(self, text, blocks):
        f = parse_polynomial(text)
        assert [(b.rows, b.cols) for b in _components(f.exponents)] == blocks
        p = symmetry_group(f)
        # The transpose's own blocks swap each block's positions, ordered
        # by its own least variable.
        assert sorted((b.rows, b.cols)
                      for b in _components(f.exponents.transpose())) == (
            sorted((cols, rows) for rows, cols in blocks))
        for g, q in ((f, p), (f.transpose(), p.dual())):
            rep = equivariant_zeta(g, q)
            assert composed_fact_mismatches(rep) == []
            assert not differs_from_direct_loop(rep)
            rep = equivariant_zeta(g, q, BATCH_ATOMS)
            assert composed_fact_mismatches(rep) == []
            assert not differs_from_direct_loop(rep)
