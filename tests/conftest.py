"""Shared test settings.

With the ``CI`` environment variable set (CI services set it), Hypothesis
runs the ``ci`` profile: examples are derived from each test's name, so a
failing CI run fails the same way locally under ``CI=1 pytest``.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
