"""Exception hierarchy shared across the package.

Everything data-related derives from :class:`FairauditError` so callers (and
the CLI, which maps these to exit code 2) can catch one base class. Plain
argument misuse raises ``ValueError`` as usual (the CLI's exit code 1).
"""


class FairauditError(Exception):
    """Base class for data, integrity, and pipeline errors."""


class ParseError(FairauditError):
    """A corpus or artifact file could not be parsed.

    Carries the 1-based line number when one is known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class IntegrityError(FairauditError):
    """Duplicate ids, unknown sources, or inconsistent artifacts."""


class MissingLabelError(FairauditError):
    """A requested decision stage is absent from one or more profiles."""

    def __init__(self, stage: str, missing_ids: list[str]):
        self.stage = stage
        self.missing_ids = list(missing_ids)
        shown = ", ".join(self.missing_ids[:10])
        more = "" if len(self.missing_ids) <= 10 else f" (+{len(self.missing_ids) - 10} more)"
        super().__init__(f"stage {stage!r} missing for ids: {shown}{more}")


class MissingLatentError(FairauditError):
    """Synthetic latent records are required but absent."""


class DimensionMismatchError(FairauditError):
    """Vector or matrix dimensions disagree with what was expected."""

    def __init__(self, expected, actual, what: str = "dimension"):
        self.expected = expected
        self.actual = actual
        super().__init__(f"{what} mismatch: expected {expected}, got {actual}")


class IdMismatchError(FairauditError):
    """An asked profile id is not among the stored ids."""


class NonFiniteError(FairauditError):
    """NaN or Inf encountered where finite values are required."""


class AlignmentError(FairauditError):
    """Two aligned structures (decisions, neighbors, metrics inputs) disagree
    on index order, length, or neighbor count."""


class SizeError(FairauditError):
    """A corpus, split, or neighbor request is too small or out of range."""


class TrainingError(FairauditError):
    """Training preconditions violated (single-class data, empty validation)."""


class StageError(FairauditError):
    """A pipeline stage failed; wraps the underlying error with a stage tag."""

    def __init__(self, stage: str, cause: BaseException):
        self.stage = stage
        self.cause = cause
        super().__init__(f"[{stage}] {cause}")
