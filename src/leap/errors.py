"""Exception hierarchy shared across the package."""


class LeapError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(LeapError):
    """A record, store, or value violates its schema or an invariant."""

    def __init__(self, message: str, *, line: int | None = None, field: str | None = None):
        self.reason = message
        if field is not None:
            message = f"{message} (field: {field})"
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
        self.field = field

    def located(self, line: int | None, path: str) -> "SchemaError":
        """This error as raised by the value at ``path`` on ``line`` of a file.

        A line the error already names is kept; its field nests under ``path``.
        """
        field = ".".join(p for p in (path, self.field) if p) or None
        if self.line is not None:
            line = self.line
        return SchemaError(self.reason, line=line, field=field)


class StorageError(LeapError):
    """Filesystem-level failure while persisting or loading data."""


class IncompleteTrajectoryError(LeapError):
    """Operation requires a finished trajectory (verdict plus terminal step)."""


class ProviderError(LeapError):
    """Chat or embedding provider failed in a non-retryable way."""

    def __init__(self, message: str, *, status: int | None = None, body: str | None = None):
        super().__init__(message)
        self.status = status
        self.body = body


class RetryExhaustedError(ProviderError):
    """Transient provider failures persisted past the retry budget."""


class UnmatchedFixtureError(ProviderError):
    """Scripted provider has no fixture entry for the request."""


class ReactParseError(LeapError):
    """Text does not follow the thought/action surface grammar."""


class AgentFormatError(LeapError):
    """An agent's model output stayed unparseable after one reprompt."""

    def __init__(self, agent: str, message: str):
        super().__init__(f"{agent}: {message}")
        self.agent = agent


class PromptError(LeapError):
    """Prompt template missing or rendered with unbound placeholders."""


class CalculatorError(LeapError):
    """Formula is syntactically invalid or evaluates outside the reals."""

    def __init__(self, message: str, *, column: int | None = None):
        if column is not None:
            message = f"{message} (column {column})"
        super().__init__(message)
        self.column = column


class ToolError(LeapError):
    """A tool invocation failed; the message becomes the step observation."""


class ToolConfigError(LeapError):
    """Toolbox configuration is unusable; raised only when the toolbox is built."""


class ConfigError(LeapError):
    """Configuration file is missing, malformed, or out of range."""


class DatasetFormatError(LeapError):
    """Dataset file does not match the declared adapter format."""


class CurationError(LeapError):
    """Trajectory cannot be curated into a training record."""
