"""Test-suite settings: property tests draw the same examples on every run.

The derandomized profile seeds each property test from the test itself and
keeps no example database, so a run does not depend on what earlier runs
left in ``.hypothesis/``.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, deadline=None, database=None)
settings.load_profile("derandomized")
