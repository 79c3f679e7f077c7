"""Exception types shared across the harness."""


class HarnessError(Exception):
    """Base class for all harness-specific errors."""


# --- media ---------------------------------------------------------------

class UnsupportedFormat(HarnessError):
    """File extension/container is outside the supported video and audio lists."""


class ProbeFailure(HarnessError):
    """The external media tool failed or produced unreadable output."""


class NotAVideo(HarnessError):
    """Operation requires a video asset."""


class InvalidOverlap(HarnessError):
    """Split overlap must be smaller than the segment length."""


# --- providers -----------------------------------------------------------

class ProviderUnavailable(HarnessError):
    """Provider is unknown, unreachable, or misconfigured."""


class ReplayMiss(HarnessError):
    """No cassette entry exists for the request in replay mode."""


class MalformedProviderOutput(HarnessError):
    """Provider returned a payload that violates its declared schema."""


# --- parsing -------------------------------------------------------------

class NoAnswerFound(HarnessError):
    """No option letter could be extracted from the response text."""


# --- benchmark -----------------------------------------------------------

class SchemaError(HarnessError):
    """A JSON document, or one of its fields, does not fit its schema.

    Every field reader in `schema` raises it. A dataset or manifest that does
    not fit is invalid input; the config and the other loaders convert it.
    """


# --- knowledge graph -----------------------------------------------------

class NoValidOutputs(HarnessError):
    """An outputs file holds no valid model output, so no graph can be built."""


class DuplicateModelName(HarnessError):
    """Two nodes of a comparison graph get one id: two model names, or a core name, or
    a model name and the summary or keyframe node of another model ("a" and "a:summary")."""


class UnknownCenter(HarnessError):
    """Metrics center node is not in the graph."""


class IoError(HarnessError):
    """An output file cannot be written: its directory cannot be made, the write fails, or the text
    holds what UTF-8 cannot encode (a lone surrogate read from a JSON escape).

    The one writer of the CLI, `cli._write`, raises it, and so does `CassetteStore.put`
    when it cannot record an answer; the command exits 1.
    """


# --- config / cli --------------------------------------------------------

class ConfigError(HarnessError):
    """Harness configuration is missing, malformed, or references absent files."""
