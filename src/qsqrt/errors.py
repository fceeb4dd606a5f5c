"""Exception types shared across the toolkit, and the formatter of their ints."""


class CircuitError(Exception):
    """Base class for all toolkit errors."""


class InvalidWidthError(CircuitError):
    """Register or circuit width outside the supported range."""


class QubitIndexError(CircuitError):
    """Gate operand refers to a qubit outside the circuit."""


class OperandCollisionError(CircuitError):
    """Gate operands are not pairwise distinct."""


class ArityError(CircuitError):
    """Operand count does not match the gate kind."""


class UnsupportedGateError(CircuitError):
    """Gate kind has no decomposition rule and is not a lowered primitive."""


class MustLowerError(CircuitError):
    """Operation requires a flattened or fully lowered circuit."""


class NonPermutationGateError(CircuitError):
    """Permutation simulation hit a gate that creates superpositions."""


class CapacityError(CircuitError):
    """Requested simulation exceeds the configured size limits."""


class InputRangeError(CircuitError):
    """Numeric input outside the supported domain."""


class QasmParseError(CircuitError):
    """Malformed or unsupported OpenQASM input."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def int_text(value: object) -> str:
    """repr of `value` for a message, but an int of over 128 bits as its bit
    length: Python refuses to print one of over 4300 digits in decimal."""
    if type(value) is int and value.bit_length() > 128:
        return f"{'-' if value < 0 else ''}<{value.bit_length()}-bit integer>"
    return repr(value)
