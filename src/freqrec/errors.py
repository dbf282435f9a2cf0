"""Exception taxonomy shared by every module.

InputError covers anything the caller handed us that cannot be processed
(bad files, bad shapes, out-of-range parameters).  NumericError covers
failures of the numerics themselves (non-convergence, NaN losses).
ProtocolError flags violated testing preconditions, CapabilityError marks
requests outside a routine's supported envelope.  The CLI maps InputError
and CapabilityError to exit code 1 and NumericError to exit code 2.
"""


class FreqRecError(Exception):
    """Base class for all package errors."""


class InputError(FreqRecError):
    """Caller-supplied data or parameters are invalid."""


class NumericError(FreqRecError):
    """A numerical routine failed to meet its contract."""


class ProtocolError(FreqRecError):
    """A verification protocol precondition was violated."""


class CapabilityError(InputError):
    """The request exceeds this routine's supported problem size."""


class PoolTooSmallError(InputError):
    """A user has fewer non-interacted items than the negatives asked for."""


class DatasetTooSparseError(InputError):
    """Interaction filtering removed every user; carries the iteration trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = list(trace or [])
