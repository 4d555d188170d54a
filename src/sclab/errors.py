"""Typed errors shared across the engine. Each class carries the exit code
the CLI returns for it: 10 usage, 11 group file parse error, 12 unknown
builtin, 13 a cap was exceeded, 20 internal error."""


class SclabError(Exception):
    """Base class for all errors raised deliberately by this package; one
    that no subclass names is a fault in the engine."""

    exit_code = 20


class ParseError(SclabError):
    """Malformed group file. Carries source name, line and column (1-based)."""

    exit_code = 11

    def __init__(self, message, *, source="<string>", line=0, column=0):
        self.source = source
        self.line = line
        self.column = column
        super().__init__(f"{source}:{line}:{column}: {message}")


class UnknownBuiltin(SclabError):
    exit_code = 12

    def __init__(self, name, available):
        self.name = name
        self.available = tuple(available)
        super().__init__(
            f"unknown builtin group {name!r}; available: {', '.join(self.available)}"
        )


class CapExceeded(SclabError):
    """Group order or lattice size exceeded a configured cap."""

    exit_code = 13


class SizeCap(SclabError):
    """Simplex count exceeded a configured cap during complex construction."""

    exit_code = 13


class PrimeDoesNotDivide(SclabError):
    """p divides no group order; a p above the order cap is raised here
    without being shown prime, so the message does not call it one."""

    exit_code = 10  # a usage error

    def __init__(self, p, order):
        self.p = p
        self.order = order
        super().__init__(f"{p} does not divide the group order {order}")


class NotASubposet(SclabError):
    """An inclusion-equivalence check was handed posets that are not nested."""


class InternalInconsistency(SclabError):
    """A consistency check on the engine's own results failed; this is a
    fault in the engine, not a property of the input."""
