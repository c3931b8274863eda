"""Exception types shared across the toolkit."""


class PolyPathError(Exception):
    """Base class for every error raised by this package."""


# -- linear algebra / system shape ----------------------------------------

class DimensionMismatch(PolyPathError):
    pass


class SingularMatrix(PolyPathError):
    """A matrix is exactly singular, has condition >= 1e14, or is not finite."""


class NotSquare(PolyPathError):
    pass


class NotHomogeneous(PolyPathError):
    pass


class DimensionOutOfRange(PolyPathError):
    pass


# -- path tracking ---------------------------------------------------------

class StartPointInvalid(PolyPathError):
    """The supplied start point does not solve the start system."""


class PathFailure(PolyPathError):
    """A tracked point failed to reach its target; callers may retry."""


class RefinementDiverged(PolyPathError):
    """Newton sharpening did not contract (singular or wrong point)."""


class DecompositionIncomplete(PolyPathError):
    """Some monodromy block never passed the trace test."""


# -- parsing and serialization ----------------------------------------------

class ParseError(PolyPathError):
    """Syntax or naming error, carrying a source position."""

    def __init__(self, message, line=0, column=0, token=""):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column
        self.token = token


class DuplicateName(ParseError):
    pass


class UndeclaredIdentifier(ParseError):
    pass


class SchemaVersionMismatch(PolyPathError):
    pass


class CorruptFile(PolyPathError):
    pass
