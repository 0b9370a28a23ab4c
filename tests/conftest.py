"""Test-wide settings: property tests draw the same examples on every run."""

from hypothesis import settings

settings.register_profile("seeded", derandomize=True, database=None)
settings.load_profile("seeded")
