"""Exception types shared across the package."""

from contextlib import contextmanager
from typing import Iterator


class LoopforgeError(Exception):
    """Base class for all package-specific errors."""


class BoundsError(LoopforgeError):
    """A cell or edge lies outside the grid it was used with."""


class FormatError(LoopforgeError):
    """A puzzle, solution, template or descriptor file is malformed."""


class CapabilityError(LoopforgeError):
    """The requested computation exceeds a configured capability limit."""


class SearchTimeout(LoopforgeError):
    """An exact search ran out of its time budget."""


class ReductionError(LoopforgeError):
    """A reduction or lifting step received inconsistent inputs."""


def json_int(value: object) -> int:
    """``value`` when it is a JSON integer; a FormatError for a float, a
    string, a bool or anything else, which ``int()`` would coerce."""
    if type(value) is not int:
        raise FormatError(f"expected an integer, got {value!r}")
    return value


@contextmanager
def malformed(what: str) -> Iterator[None]:
    """Report what parsing or building ``what`` lets escape as a FormatError."""
    try:
        yield
    except KeyError as exc:
        raise FormatError(f"bad {what}: missing {exc}") from exc
    except (TypeError, ValueError, BoundsError) as exc:
        raise FormatError(f"bad {what}: {exc}") from exc
