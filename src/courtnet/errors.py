"""Exception types raised across the pipeline."""


class CourtnetError(Exception):
    """Base class for all courtnet errors."""


class UnreadableFile(CourtnetError):
    """Source file missing or not readable."""


class EncodingError(CourtnetError):
    """Source bytes are neither valid UTF-8 nor recognizable RTF."""


class EmptyDocument(CourtnetError):
    """Document text is empty after normalization."""


class InvalidMix(CourtnetError):
    """Jurisdiction mix does not describe a probability distribution."""


class InvalidThreshold(CourtnetError, ValueError):
    """Similarity threshold outside [0, 1]."""


class MissingConclusion(CourtnetError):
    """No conclusion marker found; the document cannot be segmented."""


class OutOfOrderMarkers(CourtnetError):
    """A mandatory marker appears before an earlier one in the profile order."""


class CorruptInput(CourtnetError):
    """An input line is not JSON or not its record's form; the message names path:line."""


class EmptyCorpus(CourtnetError):
    """No documents to process."""


class WorkerFailed(CourtnetError):
    """A forked worker process failed or was killed before it returned its result."""
