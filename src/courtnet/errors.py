"""Exception types, and the exit code `cli.main` gives each one that escapes a command.

InputError exits 2. ValueError (a bad parameter, config key or win weight)
and OSError (an artifact that cannot be written, or a `flowgraph` shard that
failed, raised as ChildProcessError) exit 1. KeyboardInterrupt exits 130. A
segmentation error never escapes: each document's is caught where it happens.
"""


class InputError(Exception):
    """Input missing, unreadable, empty or corrupt; it names the file, and path:line if it can."""


class MissingConclusion(Exception):
    """No conclusion marker found; the document cannot be segmented."""


class OutOfOrderMarkers(Exception):
    """A mandatory marker appears before an earlier one in the profile order."""
