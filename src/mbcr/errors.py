"""Exception hierarchy shared across the package."""


class MbcrError(Exception):
    """Base class for all package errors."""


class FieldMismatchError(MbcrError):
    """Operand is not an element of the field it was used with."""


class ParameterError(MbcrError):
    """Invalid code parameters (n, k, d, r, field)."""


class InterpolationError(MbcrError):
    """Bad interpolation input (duplicate x)."""


class CodecError(MbcrError):
    """Invalid encode/reconstruct input (lengths, ids, arity)."""


class CorruptShareError(MbcrError):
    """Share content failed an internal consistency cross-check."""


class InconsistentShareError(CorruptShareError):
    """args: a share's node id, the node ids decoded from, first bad stripe."""

    def __str__(self):
        i, ids, stripe = self.args
        return (
            f"share {i} is inconsistent with the data decoded from shares "
            f"{', '.join(map(str, ids))} (first bad stripe: {stripe})"
        )


class ProtocolError(MbcrError):
    """Repair-protocol contract violation (plan shape, phase order)."""


class ShareFormatError(MbcrError):
    """Malformed or inconsistent share file."""
