"""Exception hierarchy shared across the package, and the one reader of
input files.

Two broad families matter to callers: ``DataError`` (bad or malformed
input) and ``NumericError`` (a computation cannot proceed or did not
converge).  The CLI maps them to exit codes 2 and 3 respectively.
Every input file is read through :func:`read_text`, so all share its rule.
"""


class LangProfileError(Exception):
    """Base class for all package errors."""


class DataError(LangProfileError):
    """Input data is missing, malformed, or inconsistent."""


def read_text(path, keep_line_ends: bool = False) -> str:
    """The text of input file ``path``: UTF-8 without a leading byte-order
    mark, with ``\\r\\n`` and a lone ``\\r`` read as ``\\n`` unless
    ``keep_line_ends`` (for ``csv``, which splits lines itself).  A byte
    that is not UTF-8 raises ``DataError`` naming the file, the byte and
    its offset from the start of the file, the mark included."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8: byte {data[exc.start]:#04x} "
                        f"at offset {exc.start}") from None
    return text if keep_line_ends else text.replace("\r\n", "\n").replace("\r", "\n")


class NumericError(LangProfileError):
    """A numeric computation is undefined or failed to converge."""


class UsageError(LangProfileError):
    """Bad command-line usage."""


# -- transcript parsing -------------------------------------------------

class ChatParseError(DataError):
    """Base for CHAT transcript parse failures."""


class MalformedTier(ChatParseError):
    pass


class OrphanDependentTier(ChatParseError):
    pass


class BadHeader(ChatParseError):
    pass


class UnbalancedScope(ChatParseError):
    pass


class DanglingMarker(ChatParseError):
    pass


# -- feature extraction -------------------------------------------------

class EmptyTranscript(DataError):
    pass


class DivisionDomain(NumericError):
    pass


class ZeroSd(NumericError):
    pass


# -- language models ----------------------------------------------------

class EmptyCorpus(DataError):
    pass


class ZeroProbability(NumericError):
    pass


# -- numerics -----------------------------------------------------------

class AllConstant(NumericError):
    pass


class NotSymmetric(NumericError):
    pass


class NoConvergence(NumericError):
    pass


class ZeroTotal(NumericError):
    pass


class TooFewComponents(NumericError):
    pass


# -- clustering ---------------------------------------------------------

class DegenerateInput(NumericError):
    pass


class SingleCluster(NumericError):
    pass


class LengthMismatch(DataError):
    pass


class TinyCluster(NumericError):
    pass


# -- pipeline -----------------------------------------------------------

class SchemaMismatch(DataError):
    pass


class NonNumericCell(DataError):
    pass


class ConfigError(DataError):
    pass


class PipelineError(LangProfileError):
    """Wraps a stage failure with the stage name attached."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
