"""Shared exception types."""


class ScamscoutError(Exception):
    """Base class for all package errors."""


class SchemaError(ScamscoutError):
    """A record or vector does not conform to its schema."""


class UnreachableSnapshotError(ScamscoutError):
    """The snapshot never resolved; parked/live verdicts do not apply."""


class UrlError(ScamscoutError):
    """A URL could not be parsed."""


class TrainingError(ScamscoutError):
    """A model could not be trained from the given data."""


class FixtureMissError(ScamscoutError):
    """A replay was asked for a SERP that is not in the fixture store."""


class UnknownEngineError(ScamscoutError):
    """Search engine name is not one of the supported engines."""

