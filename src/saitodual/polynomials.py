"""Invertible polynomials: parsing, weights, transposition, classification.

An invertible polynomial is a sum of exactly n monomials in n variables
whose n x n exponent matrix E (rows = monomials, columns = variables) has
nonzero determinant.  Coefficients are normalized to 1.
"""

from __future__ import annotations

import json
import re
import warnings
from collections import namedtuple
from dataclasses import dataclass
from math import gcd, prod

from .errors import (CoefficientWarning, PolynomialParseError, ShapeError,
                     SingularMatrixError)
from .linalg import IntMatrix, determinant, smith_normal_form

_INDEXED_NAME = re.compile(r"^([A-Za-z]+?)(\d+)$")


class InvertiblePolynomial:
    """A sum of n unit-coefficient monomials in n variables.

    ``exponents`` is the n x n matrix with entry (i, j) the exponent of
    variable j in monomial i; its determinant must be nonzero and all
    entries non-negative.
    """

    __slots__ = ("_exponents", "_variables", "_det", "_weights", "_blocks")

    def __init__(self, exponents, variables=None):
        e = exponents if isinstance(exponents, IntMatrix) else IntMatrix(exponents)
        if not e.is_square():
            raise ShapeError(
                f"{e.nrows} monomials in {e.ncols} variables; the system must be square")
        if any(x < 0 for row in e.rows for x in row):
            raise PolynomialParseError("exponents must be non-negative")
        det = determinant(e)
        if det == 0:
            raise SingularMatrixError("exponent matrix is singular")
        if variables is None:
            variables = tuple(f"x{i + 1}" for i in range(e.ncols))
        else:
            variables = tuple(str(v) for v in variables)
            if len(variables) != e.ncols:
                raise ShapeError("variable list length does not match matrix")
            if len(set(variables)) != len(variables):
                raise ShapeError("duplicate variable names")
        self._exponents = e
        self._variables = variables
        self._det = det
        self._weights = None
        self._blocks = None

    @classmethod
    def _wrap(cls, exponents, det):
        """Trusted constructor: ``exponents`` is a square non-negative
        ``IntMatrix`` of determinant ``det`` != 0, on x1..xn."""
        f = object.__new__(cls)
        f._exponents = exponents
        f._variables = tuple(f"x{i + 1}" for i in range(exponents.ncols))
        f._det = det
        f._weights = None
        f._blocks = None
        return f

    @property
    def exponents(self):
        return self._exponents

    @property
    def variables(self):
        return self._variables

    @property
    def nvars(self):
        return self._exponents.ncols

    @property
    def det(self):
        return self._det

    @property
    def weights(self):
        """The canonical weight system, computed on first use and kept."""
        if self._weights is None:
            self._weights = canonical_weights(self)
        return self._weights

    def transpose(self):
        """The polynomial with transposed exponent matrix, same variables.
        The transpose of a valid matrix is valid and has the same
        determinant, so nothing is checked or computed again.  Its
        blocks, when this polynomial's are known, are theirs transposed,
        in the same order."""
        t = object.__new__(InvertiblePolynomial)
        t._exponents = self._exponents.transpose()
        t._variables = self._variables
        t._det = self._det
        t._weights = None
        t._blocks = self._blocks and tuple(
            block.transpose() for block in self._blocks)
        return t

    def text(self):
        """Render as a sum of `*`-separated power factors."""
        parts = []
        for row in self._exponents.rows:
            factors = []
            for name, e in zip(self._variables, row):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            parts.append("*".join(factors) if factors else "1")
        return " + ".join(parts)

    def __eq__(self, other):
        return (isinstance(other, InvertiblePolynomial)
                and self._exponents == other._exponents
                and self._variables == other._variables)

    def __hash__(self):
        return hash((self._exponents, self._variables))

    def __repr__(self):
        return f"InvertiblePolynomial({self.text()!r})"


@dataclass(frozen=True)
class WeightSystem:
    """Canonical and reduced quasihomogeneous weight data of a polynomial."""

    canonical_weights: tuple
    canonical_degree: int
    gcd_factor: int
    reduced_weights: tuple
    reduced_degree: int

    def to_json(self):
        return {
            "canonical": list(self.canonical_weights),
            "degree": self.canonical_degree,
            "gcd": self.gcd_factor,
            "reduced": list(self.reduced_weights),
            "reducedDegree": self.reduced_degree,
        }


def canonical_weights(f):
    """Weight system of ``f``: the degree d = |det E| and the weights
    w = d*E^-1*1 = +-adj(E)*1 (Cramer's rule), neither depending on the
    order of the monomials, read off the Smith form of E
    (``smith_weights``); the reduced system divides out the gcd."""
    s, u, v = smith_normal_form(f.exponents)
    return smith_weights(u, v, [s.entry(i, i) for i in range(s.nrows)])


def smith_weights(u, v, factors):
    """Weight system of the exponent matrix E of a Smith form S = U*E*V
    with diagonal ``factors``: d = d_1*...*d_n = |det E| and
    d*E^-1 = V*diag(d/d_j)*U, so w = d*E^-1*1 = V*diag(d/d_j)*(U*1),
    two matrix-vector products; those of the transposed side are
    U^T*diag(d/d_j)*(V^T*1).  The package's one weight formula."""
    d = prod(factors)
    return _weight_system(v.apply_to_vector(
        [d // f * sum(row) for f, row in zip(factors, u.rows)]), d)


def direct_sum_weights(systems, positions):
    """Weight system of a direct sum from its summands' systems, summand
    a's on the variables at ``positions[a]``: the degree is
    d = d_1*...*d_k, and summand a's weights are scaled by d/d_a."""
    d = prod(ws.canonical_degree for ws in systems)
    weights = [0] * sum(map(len, positions))
    for ws, cols in zip(systems, positions):
        scale = d // ws.canonical_degree
        for j, w in zip(cols, ws.canonical_weights):
            weights[j] = scale * w
    return _weight_system(tuple(weights), d)


def _weight_system(weights, d):
    c = gcd(*weights)
    # c divides d: each row of E dotted with the weights equals d.
    return WeightSystem(
        canonical_weights=weights,
        canonical_degree=d,
        gcd_factor=c,
        reduced_weights=tuple(w // c for w in weights),
        reduced_degree=d // c,
    )


@dataclass(frozen=True)
class Atom:
    """One block of a loop/chain decomposition.

    ``indices`` are 0-based variable positions in block order: cyclic order
    for loops, head-to-terminal order for chains.  ``exponents[k]`` is the
    exponent of ``indices[k]`` in the monomial it owns.
    """

    kind: str  # "loop" | "chain"
    indices: tuple
    exponents: tuple

    @property
    def degenerate_suspect(self):
        # Linear terminal of a chain or any unit exponent in a loop makes
        # the weight system collapse; flagged, not rejected.
        if self.kind == "chain":
            return self.exponents[-1] == 1
        return any(p == 1 for p in self.exponents)

    def signature(self):
        """Canonical (kind, exponent tuple) invariant under relabeling."""
        if self.kind == "chain":
            return ("chain", self.exponents)
        rotations = [self.exponents[k:] + self.exponents[:k]
                     for k in range(len(self.exponents))]
        return ("loop", min(rotations))

    def to_json(self, variables=None):
        names = ([variables[i] for i in self.indices]
                 if variables is not None else None)
        out = {
            "kind": self.kind,
            "indices": [i + 1 for i in self.indices],
            "exponents": list(self.exponents),
            "degenerateSuspect": self.degenerate_suspect,
        }
        if names is not None:
            out["variables"] = names
        return out


@dataclass(frozen=True)
class AtomicDecomposition:
    """The loop/chain atoms of a polynomial's blocks (see ``decompose``)."""

    atoms: tuple
    non_degenerate: bool

    def to_json(self, variables=None):
        return {
            "nonDegenerate": self.non_degenerate,
            "atoms": [a.to_json(variables) for a in self.atoms],
        }


class _Block:
    """One block of an exponent matrix (see ``_blocks_of``): its
    submatrix, and the positions in the whole matrix of its monomials
    ``rows`` and its variables ``cols``, each in their original order.
    ``subsets`` keeps its contributing subsets once listed
    (``zeta._subsets_of``); a transposed block keeps the block it was
    transposed from as its ``partner``, whose subsets give its own."""

    __slots__ = ("matrix", "rows", "cols", "subsets", "partner")

    def __init__(self, matrix, rows, cols, partner=None):
        self.matrix, self.rows, self.cols = matrix, rows, cols
        self.subsets = None
        self.partner = partner

    def transpose(self):
        return _Block(self.matrix.transpose(), self.cols, self.rows, self)


def _blocks_of(f):
    """The blocks of ``f``, made on first use by ``_components`` and kept
    on ``f``, whose transpose takes them transposed.  They are its
    Thom-Sebastiani summands, whatever the order of its variables and
    monomials (Kreuzer-Skarke, Comm. Math. Phys. 150, 1992)."""
    if f._blocks is None:
        f._blocks = _components(f.exponents)
    return f._blocks


def _components(e):
    """A ``_Block`` per connected component of the graph that joins the
    variables of each row of the invertible ``e`` (square, as det E != 0
    matches its rows to its variables), by least variable: a union over
    each row's support labels each variable with the least joined one."""
    rows, n = e.rows, e.ncols
    label = list(range(n))
    for row in rows:
        joined = {label[j] for j, x in enumerate(row) if x}
        if len(joined) > 1:
            least = min(joined)
            label = [least if c in joined else c for c in label]
    if not any(label):  # one component: the matrix is its own block
        everything = tuple(range(n))
        return (_Block(e, everything, everything),)
    # Label c first appears at variable c, so the parts come in order.
    parts = {j: ([], []) for j, c in enumerate(label) if c == j}
    for j, c in enumerate(label):
        parts[c][1].append(j)
    for i, row in enumerate(rows):  # the label of any variable of the row
        parts[label[row.index(max(row))]][0].append(i)
    return tuple(_Block(IntMatrix._wrap(tuple(
        tuple(map(rows[i].__getitem__, cols)) for i in at)),
        tuple(at), tuple(cols)) for at, cols in parts.values())


def decompose(f):
    """Split ``f`` into loop atoms (rows x_i^{p_i} x_{i+1 mod m}) and
    chain atoms (rows x_i^{p_i} x_{i+1}, the last a pure power), one per
    block (``_blocks_of``) in any order of its variables and monomials,
    sorted by first index, with non_degenerate=True; if a block is
    neither, no atoms and non_degenerate=False.

    A block whose rows have at most two variables has at most one row of
    one variable, a chain's terminal, or else is a loop.  ``_walk`` reads
    it from one row, which forces the others.  A loop row x_i*x_j reads
    both ways: the block's first row owns its lower variable if it can."""
    atoms = [_atom_of(block) for block in _blocks_of(f)]
    if None in atoms:
        return AtomicDecomposition((), False)
    atoms.sort(key=lambda a: a.indices[0])
    return AtomicDecomposition(tuple(atoms), True)


def _atom_of(block):
    """The ``Atom`` that ``block`` reads as, or None."""
    rows = block.matrix.rows
    supports = [[j for j, x in enumerate(row) if x] for row in rows]
    if any(len(s) > 2 for s in supports):
        return None
    holders = [[i for i, s in enumerate(supports) if j in s]
               for j in range(len(rows))]
    ends = [i for i, s in enumerate(supports) if len(s) == 1]
    if ends:
        starts = [(ends[0], supports[ends[0]][0])]
    else:
        a, b = supports[0]
        starts = [(0, own) for own, other in ((a, b), (b, a))
                  if rows[0][other] == 1]
    for i, j in starts:
        owned = _walk(rows, holders, i, j, loop=not ends)
        if owned is not None:
            k = 0 if ends else owned.index(min(owned))  # loops: least first
            owned = owned[k:] + owned[:k]
            return Atom("chain" if ends else "loop",
                        tuple(block.cols[j] for j, _ in owned),
                        tuple(p for _, p in owned))
    return None


def _walk(rows, holders, i, j, loop):
    """The (variable, exponent) each row owns, in successor order and
    ending with row i's, when row i owns variable j: walking back, the
    other row holding the last owned variable has exponent 1 at it and
    owns its other one.  None unless a chain ends at a variable held
    once, or a ``loop`` back at row i."""
    owned, start = [], i
    while True:
        owned.append((j, rows[i][j]))
        others = [k for k in holders[j] if k != i]
        if len(others) != 1:
            return owned[::-1] if not (others or loop) else None
        (i,) = others
        if rows[i][j] != 1:
            return None
        if i == start:
            return owned[::-1] if loop else None
        (j,) = [k for k, x in enumerate(rows[i]) if x and k != j]


# One lexical token: its kind ("ident", "int", "+", "*", "^" or "end"),
# value, and 1-based line and column.
_Token = namedtuple("_Token", "kind value line column")


def _tokenize(text):
    tokens = []
    line = col = 1
    i = 0
    while i < len(text):
        ch = text[i]
        j = i + 1
        if ch == "\n":
            line, col, i = line + 1, 1, j
            continue
        if ch.isalpha():
            while j < len(text) and text[j].isalnum():
                j += 1
            tokens.append(_Token("ident", text[i:j], line, col))
        elif ch.isdecimal():
            while j < len(text) and text[j].isdecimal():
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:  # past sys.get_int_max_str_digits()
                raise PolynomialParseError(
                    f"integer of {j - i} digits is too long", line, col)
            tokens.append(_Token("int", value, line, col))
        elif ch in "+*^":
            tokens.append(_Token(ch, ch, line, col))
        elif ch == "-":
            raise PolynomialParseError(
                "negative exponents and coefficients are not allowed", line, col)
        elif not ch.isspace():
            raise PolynomialParseError(f"unexpected character {ch!r}", line, col)
        col += j - i
        i = j
    tokens.append(_Token("end", None, line, col))
    return tokens


def _parse_monomials(text):
    """Parse grammar: poly := term ('+' term)*; term := factor ('*'? factor)*;
    factor := ident ('^' uint)? | uint."""
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos]

    def take(kind):
        nonlocal pos
        tok = tokens[pos]
        if tok.kind != kind:
            raise PolynomialParseError(
                f"expected {kind}, found {tok.kind}", tok.line, tok.column)
        pos += 1
        return tok

    monomials = []
    while True:
        exps = {}
        coeff = 1
        saw_factor = False
        pending_star = False
        while True:
            tok = peek()
            if tok.kind == "ident":
                take("ident")
                power = 1
                if peek().kind == "^":
                    take("^")
                    power = take("int").value
                exps[tok.value] = exps.get(tok.value, 0) + power
                saw_factor = True
                pending_star = False
            elif tok.kind == "int":
                take("int")
                coeff *= tok.value
                saw_factor = True
                pending_star = False
            elif tok.kind == "*":
                take("*")
                pending_star = True
                continue
            else:
                break
        if not saw_factor or pending_star:
            tok = peek()
            raise PolynomialParseError("expected a factor", tok.line, tok.column)
        if coeff != 1:
            warnings.warn(
                f"coefficient {coeff} discarded; coefficients are normalized to 1",
                CoefficientWarning, stacklevel=3)
        monomials.append(exps)
        if peek().kind == "+":
            take("+")
            continue
        take("end")
        break
    return monomials


def _order_variables(names_in_appearance):
    """First-appearance order unless every name is an indexed family like
    x1..xn with one shared prefix, in which case numeric order."""
    matches = [_INDEXED_NAME.match(name) for name in names_in_appearance]
    if all(matches) and len({m.group(1) for m in matches}) == 1:
        return tuple(sorted(names_in_appearance,
                            key=lambda s: int(_INDEXED_NAME.match(s).group(2))))
    return tuple(names_in_appearance)


def _from_matrix_literal(text):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PolynomialParseError(
            f"invalid matrix literal: {exc.msg}", exc.lineno, exc.colno)
    except (ValueError, RecursionError) as exc:
        # An integer past sys.get_int_max_str_digits(), or deep nesting.
        raise PolynomialParseError(f"invalid matrix literal: {exc}")
    if not isinstance(obj, dict) or "E" not in obj:
        raise PolynomialParseError('matrix literal must be {"E": [[...]], ...}')
    unknown = sorted(set(obj) - {"E", "vars"})
    if unknown:
        raise PolynomialParseError(
            f"unknown matrix literal key {unknown[0]!r}; only \"E\" and "
            "\"vars\" are allowed")
    rows = obj["E"]
    # bool is a subclass of int, and json reads NaN and 2.5 as floats.
    if not (isinstance(rows, list) and all(
            isinstance(row, list) and all(
                type(x) is int for x in row) for row in rows)):
        raise PolynomialParseError(
            '"E" must be a list of rows of integers')
    names = obj.get("vars")
    if "vars" in obj and not (isinstance(names, list) and all(
            isinstance(v, str) for v in names)):
        raise PolynomialParseError('"vars" must be a list of strings')
    for name in names or ():
        # The tokenizer's identifier: a letter, then letters or digits.
        if not (name[:1].isalpha() and name.isalnum()):
            raise PolynomialParseError(
                f'"vars" entry {name!r} is not a variable name (a letter, '
                "then letters or digits)")
    return InvertiblePolynomial(IntMatrix(rows), names)


def parse_polynomial(text):
    """Parse polynomial text or a {"E": ..., "vars": ...} matrix literal.

    Monomial order follows the text; variable order is first appearance
    unless the names form one indexed family (x1, ..., xn).
    """
    stripped = text.strip()
    if not stripped:
        raise PolynomialParseError("empty input")
    if stripped.startswith("{"):
        return _from_matrix_literal(stripped)
    monomials = _parse_monomials(stripped)
    appearance = []
    for m in monomials:
        for name in m:
            if name not in appearance:
                appearance.append(name)
    variables = _order_variables(appearance)
    if len(monomials) != len(variables):
        raise ShapeError(
            f"{len(monomials)} monomials in {len(variables)} variables; "
            "the system must be square")
    rows = [[m.get(v, 0) for v in variables] for m in monomials]
    return InvertiblePolynomial(IntMatrix(rows), variables)
