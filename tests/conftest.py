"""Shared test settings: every hypothesis property draws 100 derandomized
examples with no deadline and no example database, so reruns see the same
inputs.  A test that needs fewer examples overrides ``max_examples`` alone.

When a property fails, hypothesis's pytest plugin imports its patch writer,
which imports ``libcst``; that import raises a ``DeprecationWarning`` from
``mypy_extensions``, which ``filterwarnings = ["error"]`` would turn into an
internal error that ends the run.  The writer is imported once here, with
that warning ignored, so a failing property reports its example and the
run goes on."""

import warnings
from importlib import import_module
from importlib.util import find_spec

from hypothesis import settings

if find_spec("libcst") is not None:
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", category=DeprecationWarning)
        import_module("hypothesis.extra._patching")

settings.register_profile(
    "properties", max_examples=100, deadline=None, derandomize=True, database=None
)
settings.load_profile("properties")
