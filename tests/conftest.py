"""Shared pytest set-up: hypothesis runs derandomized and without deadlines,
so property tests draw the same examples on every run and do not fail on a
slow or busy host."""
from hypothesis import settings

settings.register_profile("chromaplex", derandomize=True, deadline=None, database=None)
settings.load_profile("chromaplex")
