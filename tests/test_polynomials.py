"""Parsing, weight systems, transposition, and block decomposition."""

import random
import warnings

import pytest
from hypothesis import assume, given, settings, strategies as st

from saitodual.errors import (CoefficientWarning, PolynomialParseError,
                              ShapeError, SingularMatrixError)
from saitodual.linalg import IntMatrix, determinant
from saitodual.polynomials import (InvertiblePolynomial, _blocks_of,
                                   canonical_weights, decompose,
                                   parse_polynomial)

from conftest import permuted
from oracles import search_decompose


def unit_loop(n):
    """x1*x2 + x2*x3 + ... + xn*x1: every exponent 1, so each monomial
    reads both ways."""
    return parse_polynomial(" + ".join(
        f"x{i}*x{i % n + 1}" for i in range(1, n + 1)))


@st.composite
def sparse_matrices(draw):
    """An invertible polynomial of 1 to 6 variables whose monomials have
    one to three variables and exponents 1 to 3: mostly sums of loop and
    chain atoms, some not, in any order."""
    n = draw(st.integers(1, 6))
    rows = []
    for _ in range(n):
        size = draw(st.sampled_from([1, 2, 2, 2, 3]))
        support = draw(st.lists(st.integers(0, n - 1), min_size=1,
                                max_size=size, unique=True))
        row = [0] * n
        for j in support:
            row[j] = draw(st.sampled_from([1, 1, 2, 3]))
        rows.append(row)
    assume(determinant(rows) != 0)
    return InvertiblePolynomial(rows)


class TestParser:
    def test_basic(self):
        f = parse_polynomial("x^3*y + y^3")
        assert f.exponents == IntMatrix([[3, 1], [0, 3]])
        assert f.variables == ("x", "y")

    def test_single_variable(self):
        assert parse_polynomial("x^2").exponents == IntMatrix([[2]])

    def test_nonzero_determinants_accepted(self):
        assert parse_polynomial("x^2 + x*y").exponents == \
            IntMatrix([[2, 0], [1, 1]])
        assert parse_polynomial("x*y + x*y^2").exponents == \
            IntMatrix([[1, 1], [1, 2]])

    def test_juxtaposition(self):
        f = parse_polynomial("x^3y + y^3")
        assert f.exponents == IntMatrix([[3, 1], [0, 3]])

    def test_repeated_factor_accumulates(self):
        assert parse_polynomial("x*x*x + x^2*y").exponents == \
            IntMatrix([[3, 0], [2, 1]])

    def test_indexed_variables_sorted_numerically(self):
        f = parse_polynomial("x2^3 + x1^2*x2")
        assert f.variables == ("x1", "x2")
        assert f.exponents == IntMatrix([[0, 3], [2, 1]])

    def test_first_appearance_order(self):
        f = parse_polynomial("z^2*w + w^3")
        assert f.variables == ("z", "w")

    def test_matrix_literal(self):
        f = parse_polynomial('{"E": [[3, 0], [1, 2]], "vars": ["x", "y"]}')
        assert f.exponents == IntMatrix([[3, 0], [1, 2]])
        assert f.variables == ("x", "y")

    def test_matrix_literal_default_names(self):
        f = parse_polynomial('{"E": [[2]]}')
        assert f.variables == ("x1",)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            parse_polynomial("x^2 + y^2 + x*y")

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            parse_polynomial("x*y + x*y")

    def test_negative_exponent_rejected(self):
        with pytest.raises(PolynomialParseError) as info:
            parse_polynomial("x^2 + y^-3")
        assert info.value.line == 1
        assert info.value.column == 9

    def test_parse_error_position(self):
        with pytest.raises(PolynomialParseError) as info:
            parse_polynomial("x^2 +\n + y^2")
        assert info.value.line == 2

    def test_coefficient_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            f = parse_polynomial("2*x^2 + x*y")
        assert any(issubclass(w.category, CoefficientWarning) for w in caught)
        assert f.exponents == IntMatrix([[2, 0], [1, 1]])

    def test_text_round_trip(self):
        for text in ["x^3*y + y^3", "x^2", "x*y + x*y^2"]:
            f = parse_polynomial(text)
            again = parse_polynomial(f.text())
            assert again.exponents == f.exponents


class TestWeights:
    def test_chain_example(self):
        ws = canonical_weights(parse_polynomial("x^3*y + y^3"))
        assert ws.canonical_weights == (2, 3)
        assert ws.canonical_degree == 9
        assert ws.gcd_factor == 1
        assert ws.reduced_weights == (2, 3)
        assert ws.reduced_degree == 9

    def test_non_reduced_example(self):
        ws = canonical_weights(parse_polynomial('{"E": [[3, 0], [1, 2]]}'))
        assert ws.canonical_weights == (2, 2)
        assert ws.canonical_degree == 6
        assert ws.gcd_factor == 2
        assert ws.reduced_weights == (1, 1)
        assert ws.reduced_degree == 3

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_fermat(self, p):
        ws = canonical_weights(parse_polynomial(f"x^{p}"))
        assert ws.canonical_weights == (1,)
        assert ws.canonical_degree == p

    def test_quasihomogeneity_identity(self, corpus_sample):
        # E * w = d * (1,...,1) exactly, for every polynomial.
        for f in corpus_sample:
            ws = canonical_weights(f)
            image = f.exponents.apply_to_vector(ws.canonical_weights)
            assert image == tuple([ws.canonical_degree] * f.nvars)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_invariant_under_monomial_order(self, data):
        # Reordering the monomials permutes the rows of E and may flip the
        # sign of det E; the weight system is that of the polynomial.
        n = data.draw(st.integers(1, 4))
        rows = data.draw(st.lists(
            st.lists(st.integers(0, 5), min_size=n, max_size=n),
            min_size=n, max_size=n))
        assume(determinant(rows) != 0)
        order = data.draw(st.permutations(range(n)))
        ws = canonical_weights(InvertiblePolynomial(rows))
        again = canonical_weights(InvertiblePolynomial(
            [rows[i] for i in order]))
        assert again == ws
        assert ws.canonical_degree == abs(determinant(rows)) > 0

    def test_transpose_preserves_degree(self, corpus_sample):
        for f in corpus_sample:
            assert canonical_weights(f).canonical_degree == \
                canonical_weights(f.transpose()).canonical_degree


class TestTranspose:
    def test_example(self):
        f = parse_polynomial("x^3*y + y^3")
        ft = f.transpose()
        assert ft.exponents == IntMatrix([[3, 0], [1, 3]])
        assert ft.text() == "x^3 + x*y^3"

    def test_fermat_self_transpose(self):
        f = parse_polynomial("x^4 + y^6")
        assert f.transpose() == f

    def test_involution(self, corpus_sample):
        for f in corpus_sample:
            assert f.transpose().transpose() == f


class TestDecompose:
    def test_chain(self):
        dec = decompose(parse_polynomial("x^3*y + y^3"))
        assert dec.non_degenerate
        assert len(dec.atoms) == 1
        atom = dec.atoms[0]
        assert atom.kind == "chain"
        assert atom.exponents == (3, 3)
        assert not atom.degenerate_suspect

    def test_loop(self):
        dec = decompose(parse_polynomial("x^2*y + x*y^2"))
        assert dec.non_degenerate
        assert dec.atoms[0].kind == "loop"
        assert dec.atoms[0].exponents == (2, 2)

    def test_fermat_is_chain_of_length_one(self):
        dec = decompose(parse_polynomial("x^5"))
        assert dec.atoms[0].kind == "chain"
        assert dec.atoms[0].exponents == (5,)

    def test_sum_of_blocks(self):
        dec = decompose(parse_polynomial("x^2 + y^3*z + z^4"))
        assert dec.non_degenerate
        kinds = sorted(a.signature() for a in dec.atoms)
        assert kinds == [("chain", (2,)), ("chain", (3, 4))]

    def test_not_decomposable(self):
        # A monomial touching three variables fits no loop/chain pattern.
        f = parse_polynomial("x^2*y*z + y^2 + z^2")
        dec = decompose(f)
        assert not dec.non_degenerate
        assert dec.atoms == ()

    def test_invariant_under_relabeling(self):
        a = decompose(parse_polynomial("x^3*y + y^4 + z^2"))
        b = decompose(parse_polynomial("z^2 + y^4 + x^3y"))
        c = decompose(parse_polynomial("y^3*x + x^4 + w^2"))
        sig = sorted(atom.signature() for atom in a.atoms)
        assert sorted(atom.signature() for atom in b.atoms) == sig
        assert sorted(atom.signature() for atom in c.atoms) == sig

    def test_transpose_of_decomposable_is_decomposable(self, corpus_sample):
        for f in corpus_sample:
            if decompose(f).non_degenerate:
                assert decompose(f.transpose()).non_degenerate

    def test_corpus_matches_search_in_any_order(self, corpus45):
        # Every value decompose returns (non_degenerate, and each atom's
        # kind, indices and exponents) is the backtracking search's, on
        # each corpus polynomial as built and with its monomials and its
        # variables shuffled.
        rng = random.Random(45)
        checked = mismatches = 0
        for f in corpus45:
            for g in (f, permuted(f, rng), permuted(f, rng)):
                checked += 1
                mismatches += decompose(g) != search_decompose(g)
        assert (checked, mismatches) == (3 * len(corpus45), 0)

    @settings(max_examples=300, deadline=None)
    @given(sparse_matrices())
    def test_random_matrices_match_search(self, f):
        assert decompose(f) == search_decompose(f)

    @pytest.mark.parametrize("f", [
        unit_loop(3), unit_loop(5), unit_loop(7),
        parse_polynomial("x*y + x*y^2"),
        parse_polynomial("x*y + y^2"),
        parse_polynomial("x^2*y + y"),
    ], ids=["unit loop 3", "unit loop 5", "unit loop 7", "x*y + x*y^2",
            "x*y + y^2", "x^2*y + y"])
    def test_two_readings_break_like_the_search(self, f):
        # A monomial with exponents 1 and 1 reads both ways; the first
        # reading in row order that walks wins, as in the search.
        rng = random.Random(7)
        for g in (f, permuted(f, rng), permuted(f, rng), f.transpose()):
            dec = decompose(g)
            assert dec.non_degenerate
            assert dec == search_decompose(g)

    def test_interleaved_blocks_are_components(self):
        # The blocks are the connected components, ordered by least
        # variable, with the original positions of their monomials and
        # variables; the transpose takes them transposed, in that order.
        f = parse_polynomial("x2^3 + x1^2*x2 + x3^5")
        assert [(b.rows, b.cols) for b in _blocks_of(f)] == [
            ((0, 1), (0, 1)), ((2,), (2,))]
        f = parse_polynomial('{"E": [[0, 3], [2, 0]]}')
        blocks = _blocks_of(f)
        assert [(b.matrix.rows, b.rows, b.cols) for b in blocks] == [
            (((2,),), (1,), (0,)), (((3,),), (0,), (1,))]
        assert [(b.matrix, b.rows, b.cols)
                for b in _blocks_of(f.transpose())] == [
            (b.matrix.transpose(), b.cols, b.rows) for b in blocks]
        f = parse_polynomial("x1^2*x3 + x2^3 + x3^3")
        assert [(b.rows, b.cols) for b in _blocks_of(f)] == [
            ((0, 2), (0, 2)), ((1,), (1,))]

    def test_degenerate_suspect_flags(self):
        # Chain with unit terminal exponent.
        chain = decompose(parse_polynomial("x^2*y + y"))
        assert chain.non_degenerate
        assert chain.atoms[0].degenerate_suspect
        # Loop with a unit exponent.
        loop = decompose(parse_polynomial("x*y + x*y^2"))
        assert loop.atoms[0].kind == "loop"
        assert loop.atoms[0].degenerate_suspect
        # Unit exponent mid-chain is fine.
        mid = decompose(parse_polynomial("x*y + y^2"))
        assert mid.atoms[0].kind == "chain"
        assert not mid.atoms[0].degenerate_suspect


class TestValidation:
    def test_non_negative_entries_required(self):
        with pytest.raises(PolynomialParseError):
            InvertiblePolynomial(IntMatrix([[1, -1], [0, 2]]))

    def test_square_required(self):
        with pytest.raises(ShapeError):
            InvertiblePolynomial(IntMatrix([[1, 2, 0], [0, 1, 1]]))

    def test_duplicate_variable_names(self):
        with pytest.raises(ShapeError):
            InvertiblePolynomial(IntMatrix([[2, 0], [0, 2]]), ["x", "x"])
