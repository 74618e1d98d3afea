"""Shared test settings.

Hypothesis examples run without a per-example deadline: the default 200 ms
deadline measures machine load as much as the code, so a busy machine could
fail a correct example. Example counts, strategies and tolerances are set by
each test and are unchanged.
"""

from hypothesis import settings

settings.register_profile("no-deadline", deadline=None)
settings.load_profile("no-deadline")
