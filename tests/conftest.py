"""Every hypothesis test draws the same examples on every run.

The ``deterministic`` profile seeds each test's examples from the test itself,
so a property test passes or fails the same way each time the suite runs. Each
test keeps its own ``max_examples`` and ``deadline``.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
