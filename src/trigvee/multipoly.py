"""Sparse multivariate polynomials and rational functions over exact rationals.

Carriers for multiplicity constraints: variables are multiplicity symbols,
coefficients are Fractions, terms live in a dict keyed by exponent tuples.
Nothing here is built for large polynomials; constraint systems in this
package have a handful of variables and total degree a few units.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from operator import add
from typing import Mapping, Sequence

from .errors import ParseError
from .exactnum import as_rational


class MultiPoly:
    """Polynomial in an ordered tuple of named variables.

    terms maps exponent tuples to nonzero Fraction coefficients; the zero
    polynomial has no terms.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple[int, ...], Fraction] | None = None):
        object.__setattr__(self, "vars", tuple(variables))
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for expo, coef in terms.items():
                coef = as_rational(coef)
                if coef != 0:
                    clean[tuple(expo)] = coef
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _clean(cls, variables: tuple[str, ...], terms: dict) -> "MultiPoly":
        """Wrap clean terms (nonzero Fractions by exponent tuple), unchecked."""
        p = object.__new__(cls)
        object.__setattr__(p, "vars", variables)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "MultiPoly":
        return cls(variables, {})

    @classmethod
    def const(cls, variables: Sequence[str], value) -> "MultiPoly":
        value = as_rational(value)
        n = len(variables)
        return cls(variables, {(0,) * n: value} if value != 0 else {})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "MultiPoly":
        idx = tuple(variables).index(name)
        expo = tuple(1 if i == idx else 0 for i in range(len(variables)))
        return cls(variables, {expo: Fraction(1)})

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        # graded lexicographic, highest first
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def with_vars(self, variables: Sequence[str]) -> "MultiPoly":
        """Re-express over a superset of the current variables."""
        variables = tuple(variables)
        if variables == self.vars:
            return self
        pos = [variables.index(v) for v in self.vars]
        n = len(variables)
        terms = {}
        for expo, coef in self.terms.items():
            new = [0] * n
            for p, e in zip(pos, expo):
                new[p] = e
            terms[tuple(new)] = coef
        return MultiPoly(variables, terms)

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.vars != self.vars:
                raise ValueError("variable sets differ; use with_vars first")
            return other
        return MultiPoly.const(self.vars, other)

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        terms = dict(self.terms)
        for expo, coef in other.terms.items():
            terms[expo] = terms.get(expo, Fraction(0)) + coef
        return MultiPoly(self.vars, terms)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "MultiPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            c = as_rational(other)
            return MultiPoly(self.vars, {e: c * v for e, v in self.terms.items()})
        (p, a), (q, b) = _cleared(self.terms), _cleared(self._coerce(other).terms)
        return _from_ints(self.vars, _int_mul(p, q), a * b)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.const(self.vars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.vars, frozenset(self.terms.items())))

    # -- evaluation ---------------------------------------------------

    def evaluate(self, assignment: Mapping[str, Fraction | int]) -> Fraction:
        values = [as_rational(assignment[v]) for v in self.vars]
        total = Fraction(0)
        for expo, coef in self.terms.items():
            term = coef
            for val, e in zip(values, expo):
                if e:
                    term *= val**e
            total += term
        return total

    def evaluate_float(self, values: Sequence[float]) -> float:
        total = 0.0
        for expo, coef in self.terms.items():
            term = float(coef)
            for val, e in zip(values, expo):
                if e:
                    term *= val**e
            total += term
        return total

    def substitute(self, mapping: Mapping[str, "RatFunc"], cache: dict | None = None) -> "RatFunc":
        """Substitute a rational function for every variable, exactly.

        Terms are summed over the common denominator prod_i den_i^maxdeg_i,
        so the result's numerator vanishing is equivalent to the substituted
        expression vanishing identically.

        The sum is taken on integers.  The coefficients are cleared to C_e / L
        and each image to num_i = N_i / a_i, den_i = D_i / b_i once, so with
        S = L prod_i (a_i b_i)^d_i, d_i = maxdeg_i, S times the term of e is
        C_e prod_i N_i^e_i D_i^(d_i - e_i) a_i^(d_i - e_i) b_i^e_i, and one
        Fraction over S is made per term of the result.  The products are
        formed, and each term added to the total, in the order of the
        expansion term by term, each dropping the terms that cancel; so the
        result's terms come in that expansion's order.

        `cache` is a dict that a caller keeps across calls with one mapping:
        it holds each image cleared to integers and the powers of it built so
        far, so that a family of polynomials clears the images once.
        """
        if not self.terms:
            some = next(iter(mapping.values()))
            return RatFunc.constant(some.vars, 0)
        images = [mapping[v] for v in self.vars]
        param_vars = images[0].vars
        if any(img.vars != param_vars for img in images):
            raise ValueError("substitution images must share one variable set")
        max_deg = [max(e[i] for e in self.terms) for i in range(len(self.vars))]
        coefs, scale = _cleared(self.terms)
        cache = {} if cache is None else cache
        for v, img in zip(self.vars, images):
            if v not in cache:
                cache[v] = _cleared(img.num.terms), _cleared(img.den.terms), [None], [None]
        nums, dens, num_pows, den_pows = zip(*(cache[v] for v in self.vars))
        # skip num^0, den^0 and powers of a denominator 1: a product with the
        # constant 1 keeps every term and its order
        one = {(0,) * len(param_vars): 1}
        has_den = [den != (one, 1) for den in dens]
        for (num, a), (den, b), num_pow, den_pow, d in zip(nums, dens, num_pows, den_pows, max_deg):
            _extend_pow_table(num_pow, num, d)
            _extend_pow_table(den_pow, den, d)
            scale *= (a * b) ** d
        total: dict[tuple[int, ...], int] = {}
        for expo, coef in coefs.items():
            piece = None
            for i, e in enumerate(expo):
                d = max_deg[i]
                if e:
                    piece = _int_mul(piece, num_pows[i][e])
                if has_den[i] and e != d:
                    piece = _int_mul(piece, den_pows[i][d - e])
                if e != d:
                    coef *= nums[i][1] ** (d - e)
                if e:
                    coef *= dens[i][1] ** e
            for key, c in (one if piece is None else piece).items():
                v = total.get(key, 0) + coef * c
                if v:
                    total[key] = v
                else:
                    del total[key]
        total_den, den_scale = one, 1
        for i, d in enumerate(max_deg):
            if has_den[i] and d:
                total_den = _int_mul(total_den, den_pows[i][d])
                den_scale *= dens[i][1] ** d
        return RatFunc(
            _from_ints(param_vars, total, scale), _from_ints(param_vars, total_den, den_scale)
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for expo, coef in self.sorted_terms():
            factors = []
            for v, e in zip(self.vars, expo):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            body = "*".join(factors)
            if not body:
                parts.append(str(coef))
            elif coef == 1:
                parts.append(body)
            elif coef == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coef}*{body}")
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    __repr__ = __str__


# Integer polynomials: exponent tuple -> nonzero int, in term order.


def _cleared(terms: Mapping[tuple[int, ...], Fraction]) -> tuple[dict, int]:
    """(T, L): the Fraction terms as integers T over the lcm L of their denominators."""
    den = lcm(*(c.denominator for c in terms.values()))
    return {e: c.numerator * (den // c.denominator) for e, c in terms.items()}, den


def _int_mul(p: dict | None, q: dict) -> dict:
    """p * q, each term placed where its exponent first occurs; None stands for 1."""
    if p is None:
        return q
    terms: dict[tuple[int, ...], int] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            expo = tuple(map(add, e1, e2))
            terms[expo] = terms.get(expo, 0) + c1 * c2
    return {e: c for e, c in terms.items() if c}


def _extend_pow_table(table: list[dict | None], p: dict, up_to: int) -> None:
    """Extend table = [p^0 (None, for 1), p, ...] through p^up_to, each power
    the product of the one before and p."""
    while len(table) <= up_to:
        table.append(_int_mul(table[-1], p))


def _from_ints(variables: tuple[str, ...], terms: dict, den: int) -> MultiPoly:
    """The polynomial with the integer terms over den."""
    return MultiPoly._clean(variables, {e: Fraction(c, den) for e, c in terms.items()})


class RatFunc:
    """Quotient of two MultiPolys; denominators are never expanded away.

    No gcd reduction is attempted (inputs here are tiny); equality-to-zero
    is simply numerator-is-zero, which is exact.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.vars != den.vars:
            raise ValueError("numerator and denominator variable sets differ")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @property
    def vars(self) -> tuple[str, ...]:
        return self.num.vars

    @classmethod
    def constant(cls, variables: Sequence[str], value) -> "RatFunc":
        return cls(MultiPoly.const(variables, value), MultiPoly.const(variables, 1))

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "RatFunc":
        return cls(MultiPoly.variable(variables, name), MultiPoly.const(variables, 1))

    @classmethod
    def from_poly(cls, p: MultiPoly) -> "RatFunc":
        return cls(p, MultiPoly.const(p.vars, 1))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _coerce(self, other) -> "RatFunc":
        if isinstance(other, RatFunc):
            if other.vars != self.vars:
                raise ValueError("variable sets differ")
            return other
        if isinstance(other, MultiPoly):
            return RatFunc.from_poly(other.with_vars(self.vars))
        return RatFunc.constant(self.vars, other)

    def __add__(self, other) -> "RatFunc":
        other = self._coerce(other)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other) -> "RatFunc":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RatFunc":
        return self._coerce(other) - self

    def __mul__(self, other) -> "RatFunc":
        other = self._coerce(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        other = self._coerce(other)
        if other.num.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RatFunc":
        return self._coerce(other) / self

    def __pow__(self, k: int) -> "RatFunc":
        if k >= 0:
            return RatFunc(self.num**k, self.den**k)
        if self.num.is_zero():
            raise ZeroDivisionError("negative power of zero")
        return RatFunc(self.den ** (-k), self.num ** (-k))

    def __str__(self) -> str:
        if self.den == MultiPoly.const(self.vars, 1):
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Tiny expression parser for CLI parametrizations: identifiers, integers,
# + - * / ^ and parentheses; '^' takes a nonnegative integer exponent.
# ---------------------------------------------------------------------------

# largest power the parser computes, in bits of its coefficients: about 3000
# decimal digits, within the 4300 that int converts to and from str by default
_MAX_POWER_BITS = 10_000
# and in terms, whose count the expansion time grows with the square of: a
# t-term polynomial's k-th power has at most C(k+t-1, t-1) ((1+s+t)^30: 496)
_MAX_POWER_TERMS = 500


def _height_bits(p: MultiPoly) -> int:
    """Bits b such that p^k's coefficients are ratios of integers below 2^(k b):
    p = q / L with L the lcm of the denominators, and q^k's coefficients stay
    below the k-th power of the sum of q's |coefficients|."""
    ints, den = _cleared(p.terms)
    return max(sum(map(abs, ints.values())).bit_length(), den.bit_length())


def _tokenize(text: str) -> list[str]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif "0" <= ch <= "9":
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            try:
                int(text[i:j])
            except ValueError:  # more digits than int converts from str
                raise ParseError(f"integer too long ({j - i} digits)", column=i + 1) from None
            tokens.append(text[i:j])
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalpha() or "0" <= text[j] <= "9" or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
        elif ch in "+-*/^()":
            tokens.append(ch)
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r} in expression", column=i + 1)
    return tokens


def expression_variables(text: str) -> set[str]:
    return {t for t in _tokenize(text) if t[0].isalpha() or t[0] == "_"}


def parse_expression(text: str, variables: Sequence[str]) -> RatFunc:
    """Parse an arithmetic expression into a RatFunc over the given variables."""
    tokens = _tokenize(text)
    pos = 0

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def advance() -> str:
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_sum() -> RatFunc:
        node = parse_product()
        while peek() in ("+", "-"):
            op = advance()
            rhs = parse_product()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_product() -> RatFunc:
        node = parse_unary()
        while peek() in ("*", "/"):
            op = advance()
            rhs = parse_unary()
            if op == "/" and rhs.is_zero():
                raise ParseError("division by zero in expression")
            node = node * rhs if op == "*" else node / rhs
        return node

    def parse_unary() -> RatFunc:
        # unary minus binds looser than '^': -t^2 means -(t^2)
        tok = peek()
        if tok == "-":
            advance()
            return -parse_unary()
        if tok == "+":
            advance()
            return parse_unary()
        return parse_power()

    def parse_power() -> RatFunc:
        base = parse_atom()
        if peek() == "^":
            advance()
            tok = peek()
            if tok is None or not tok.isdigit():
                raise ParseError("exponent must be a nonnegative integer")
            k = int(advance())
            if k * max(_height_bits(base.num), _height_bits(base.den)) > _MAX_POWER_BITS:
                raise ParseError(f"power too large (over {_MAX_POWER_BITS} bits)")
            t = max(len(base.num.terms), len(base.den.terms))
            if comb(k + t - 1, t - 1) > _MAX_POWER_TERMS:
                raise ParseError(f"power too large (over {_MAX_POWER_TERMS} terms)")
            return base**k
        return base

    def parse_atom() -> RatFunc:
        tok = peek()
        if tok is None:
            raise ParseError("unexpected end of expression")
        if tok == "(":
            advance()
            node = parse_sum()
            if peek() != ")":
                raise ParseError("missing closing parenthesis")
            advance()
            return node
        advance()
        if tok.isdigit():
            return RatFunc.constant(variables, int(tok))
        if tok in variables:
            return RatFunc.variable(variables, tok)
        raise ParseError(f"unknown symbol {tok!r} in expression")

    result = parse_sum()
    if pos != len(tokens):
        raise ParseError(f"trailing input after expression: {tokens[pos]!r}")
    return result
