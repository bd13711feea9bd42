"""Shared test settings.

Property tests draw their examples from a fixed seed and keep no example
database, so every run of the suite checks the same cases.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
