"""Test-suite settings: hypothesis draws the same examples on every run.

``derandomize`` seeds each property test from a hash of the test itself, so
a failure reproduces on the next run and a pass does not depend on luck;
``deadline=None`` keeps a slow example from failing on timing alone.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
