"""Shared test settings: every hypothesis property draws 100 derandomized
examples with no deadline and no example database, so reruns see the same
inputs.  A test that needs fewer examples overrides ``max_examples`` alone."""

from hypothesis import settings

settings.register_profile(
    "properties", max_examples=100, deadline=None, derandomize=True, database=None
)
settings.load_profile("properties")
