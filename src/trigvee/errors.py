"""Exception hierarchy shared by all trigvee modules."""


class VeeError(Exception):
    """Base class for every error raised by this package."""


class InputError(VeeError):
    """Input outside the hypotheses of the operation: `vee` exits 2 on it, and 1
    on any other VeeError."""


class DimensionMismatch(InputError):
    """Operands have incompatible shapes or coordinate lengths."""


class SingularMatrix(VeeError):
    """Inverse requested for a matrix with zero determinant."""


class ZeroCovector(InputError):
    """A configuration entry has the zero covector."""


class ZeroMultiplicity(InputError):
    """A configuration entry has multiplicity zero."""


class DuplicateCovector(InputError):
    """Two entries carry the same covector up to sign."""


class DegenerateForm(VeeError):
    """The bilinear form in use is degenerate, so duals do not exist."""


class FunctionalVanishes(InputError):
    """A supplied orientation functional annihilates some covector."""


class SingularPoint(VeeError):
    """Evaluation point too close to a singular hyperplane sin(a(x)) = 0."""


class ZeroLambda(InputError):
    """The coupling constant must be nonzero for the prepotential ansatz."""


class SamplingExhausted(InputError):
    """Could not find a nonsingular sample point within the retry budget."""


class OutOfDomain(VeeError):
    """Point outside the convergence domain of the trilogarithm series."""


class CollinearPair(InputError):
    """Operation requires pairwise non-collinear covectors."""


class NonScalarAction(VeeError):
    """The metric-vs-form operator is not diagonalizable with rational scalar blocks."""


class SpanDeficient(InputError):
    """Vector set does not span the ambient space."""


class DegenerateParametrization(VeeError):
    """A multiplicity parametrization makes the form identically degenerate."""


class UnknownName(InputError):
    """No catalog entry with the requested name."""


class InvalidParams(InputError):
    """A parameter is out of range: catalog parameters, sample counts, inputs."""


class ParseError(InputError):
    """Configuration file text does not match the grammar."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + loc)
