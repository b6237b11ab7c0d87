"""Invertible polynomials: parsing, weights, transposition, classification.

An invertible polynomial is a sum of exactly n monomials in n variables
whose n x n exponent matrix E (rows = monomials, columns = variables) has
nonzero determinant.  Coefficients are normalized to 1.
"""

from __future__ import annotations

import json
import re
import warnings
from dataclasses import dataclass
from math import gcd

from .errors import (CoefficientWarning, PolynomialParseError, ShapeError,
                     SingularMatrixError)
from .linalg import IntMatrix, determinant

_INDEXED_NAME = re.compile(r"^([A-Za-z]+?)(\d+)$")


class InvertiblePolynomial:
    """A sum of n unit-coefficient monomials in n variables.

    ``exponents`` is the n x n matrix with entry (i, j) the exponent of
    variable j in monomial i; its determinant must be nonzero and all
    entries non-negative.
    """

    __slots__ = ("_exponents", "_variables", "_det", "_weights")

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
        """The polynomial with transposed exponent matrix, same variables."""
        return InvertiblePolynomial(self._exponents.transpose(), self._variables)

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
    """Weight system of ``f``: w_i is det(E) with column i replaced by ones,
    the degree is det(E), and the reduced system divides out the gcd."""
    e = f.exponents
    n = e.ncols
    d = f.det
    ones = [1] * n
    weights = []
    for i in range(n):
        cols = [[e.entry(r, j) if j != i else ones[r] for j in range(n)]
                for r in range(n)]
        weights.append(determinant(IntMatrix(cols)))
    c = 0
    for w in weights:
        c = gcd(c, w)
    # c divides d: each row of E dotted with the weights equals d.
    return WeightSystem(
        canonical_weights=tuple(weights),
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
    """Result of the loop/chain block search."""

    atoms: tuple
    non_degenerate: bool

    def to_json(self, variables=None):
        return {
            "nonDegenerate": self.non_degenerate,
            "atoms": [a.to_json(variables) for a in self.atoms],
        }


def decompose(f):
    """Split ``f`` into loop/chain blocks when a simultaneous row/column
    permutation exhibits the exponent matrix as block diagonal with each
    block of loop form (rows x_i^{p_i} x_{i+1 mod m}) or chain form (rows
    x_i^{p_i} x_{i+1}, last row a pure power).

    Returns atoms with non_degenerate=True on success, otherwise an empty
    decomposition with non_degenerate=False.
    """
    e = f.exponents
    n = e.ncols
    # Candidate (own variable, successor) readings of each monomial.
    candidates = []
    for i in range(n):
        nz = [(j, e.entry(i, j)) for j in range(n) if e.entry(i, j) != 0]
        opts = []
        if len(nz) == 1:
            j, p = nz[0]
            opts.append((j, p, None))
        elif len(nz) == 2:
            (j1, p1), (j2, p2) = nz
            if p2 == 1:
                opts.append((j1, p1, j2))
            if p1 == 1:
                opts.append((j2, p2, j1))
        if not opts:
            return AtomicDecomposition((), False)
        candidates.append(opts)

    own = [None] * n        # own[i] = variable owned by monomial i
    succ = [None] * n       # succ[i] = successor variable of monomial i
    used = [False] * n

    def assign(i):
        if i == n:
            return _validate_structure(own, succ, n)
        for j, p, nxt in candidates[i]:
            if used[j]:
                continue
            used[j] = True
            own[i], succ[i] = j, nxt
            atoms = assign(i + 1)
            if atoms is not None:
                return atoms
            used[j] = False
            own[i] = succ[i] = None
        return None

    def _validate_structure(own, succ, n):
        exponent_of = {}
        next_of = {}
        for i in range(n):
            exponent_of[own[i]] = e.entry(i, own[i])
            next_of[own[i]] = succ[i]
        indegree = {v: 0 for v in range(n)}
        for v in range(n):
            if next_of[v] is not None:
                indegree[next_of[v]] += 1
        if any(c > 1 for c in indegree.values()):
            return None
        atoms = []
        seen = set()
        # Chains: walk forward from each in-degree-zero variable.
        for v in range(n):
            if indegree[v] == 0:
                path = []
                cur = v
                while cur is not None:
                    if cur in seen:
                        return None  # path runs into a cycle
                    seen.add(cur)
                    path.append(cur)
                    cur = next_of[cur]
                atoms.append(Atom("chain", tuple(path),
                                  tuple(exponent_of[x] for x in path)))
        # Remaining variables must form disjoint cycles.
        for v in range(n):
            if v not in seen:
                cycle = []
                cur = v
                while cur not in seen:
                    seen.add(cur)
                    cycle.append(cur)
                    cur = next_of[cur]
                if cur != cycle[0] or len(cycle) < 2:
                    return None
                start = cycle.index(min(cycle))
                cycle = cycle[start:] + cycle[:start]
                atoms.append(Atom("loop", tuple(cycle),
                                  tuple(exponent_of[x] for x in cycle)))
        atoms.sort(key=lambda a: a.indices[0])
        return tuple(atoms)

    atoms = assign(0)
    if atoms is None:
        return AtomicDecomposition((), False)
    return AtomicDecomposition(atoms, True)


class _Token:
    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind, value, line, column):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column


def _tokenize(text):
    tokens = []
    line = 1
    col = 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and text[j].isalnum():
                j += 1
            tokens.append(_Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:  # past sys.get_int_max_str_digits()
                raise PolynomialParseError(
                    f"integer of {j - i} digits is too long", line, col)
            tokens.append(_Token("int", value, line, col))
            col += j - i
            i = j
            continue
        if ch in "+*^":
            tokens.append(_Token(ch, ch, line, col))
            col += 1
            i += 1
            continue
        if ch == "-":
            raise PolynomialParseError(
                "negative exponents and coefficients are not allowed", line, col)
        raise PolynomialParseError(f"unexpected character {ch!r}", line, col)
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
