"""Exception types shared across the package."""

from __future__ import annotations


class DigraphFormatError(ValueError):
    """Raised when a serialized digraph cannot be parsed.

    ``offset`` is the byte position at which parsing failed.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.message = message
        self.offset = offset

    def __reduce__(self):  # rebuild from the arguments, not the formatted text
        return type(self), (self.message, self.offset)


class RejectionLimitError(RuntimeError):
    """A rejection sampler exceeded its attempt cap.

    Signals pathological parameters (e.g. simple generation with large k, or a
    surjection size that the one-in-core almost never hits) rather than a bug.
    """

    def __init__(self, message: str, attempts: int):
        super().__init__(f"{message} after {attempts} attempts")
        self.message = message
        self.attempts = attempts

    def __reduce__(self):
        return type(self), (self.message, self.attempts)


def _replicate_prefix(replicate: int | None) -> str:
    return "" if replicate is None else f"replicate {replicate}: "


class CycleCapError(RuntimeError):
    """Cycle enumeration found more elementary cycles than the cap allows.

    ``replicate`` names the Monte Carlo replicate that hit the cap, if any.
    """

    def __init__(self, cap: int, replicate: int | None = None):
        where = _replicate_prefix(replicate)
        super().__init__(f"{where}more than {cap} elementary cycles")
        self.cap = cap
        self.replicate = replicate

    def __reduce__(self):  # survive the trip back from a worker process
        return type(self), (self.cap, self.replicate)


class ComponentCapError(RuntimeError):
    """A nontrivial strongly connected component is too large for exact search.

    ``replicate`` names the Monte Carlo replicate that hit the cap, if any.
    """

    def __init__(self, size: int, cap: int, replicate: int | None = None):
        where = _replicate_prefix(replicate)
        super().__init__(
            f"{where}nontrivial strongly connected component of size {size} "
            f"exceeds cap {cap}"
        )
        self.size = size
        self.cap = cap
        self.replicate = replicate

    def __reduce__(self):
        return type(self), (self.size, self.cap, self.replicate)


class SettingError(ValueError):
    """An environment variable holds a value the package cannot use."""

    def __init__(self, name: str, value: str, expected: str):
        super().__init__(f"{name}={value!r} is invalid: expected {expected}")
        self.name = name
        self.value = value
        self.expected = expected

    def __reduce__(self):
        return type(self), (self.name, self.value, self.expected)


class InvariantViolationError(AssertionError):
    """A structural invariant failed during a validated Monte Carlo run."""
