"""Exception types shared across the package.

Each carries the exit code the CLI returns for it: 1 for a usage error, 2
for a data or validation error, 3 for training divergence.  Each also keeps
its builtin base (ValueError, TypeError, RuntimeError).
"""


class LogisticLDAError(Exception):
    """Base class of the package's errors; `exit_code` is the CLI's exit code."""

    exit_code = 2


class DomainError(LogisticLDAError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ContractError(LogisticLDAError, ValueError):
    """A structural precondition was violated (shapes, emptiness, kind mismatch)."""


class UsageError(ContractError):
    """A config-file fault, or an output path that names another file of its command."""

    exit_code = 1


class CorpusFormatError(LogisticLDAError, ValueError):
    """A corpus file is malformed; the message names the offending line."""


class CheckpointError(LogisticLDAError, ValueError):
    """Base class for checkpoint read failures."""


class IntegrityError(CheckpointError):
    """Checkpoint bytes are corrupt or truncated."""


class UnsupportedVersionError(CheckpointError):
    """Checkpoint was written by an unrecognized format version."""


class UnsupportedOperationError(LogisticLDAError, TypeError):
    """The operation is not defined for this encoder kind."""


class TrainingDivergedError(LogisticLDAError, RuntimeError):
    """Training produced a non-finite loss or gradient."""

    exit_code = 3
