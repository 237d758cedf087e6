"""Suite-wide test settings.

Hypothesis runs derandomized (every run draws the same examples), without a
per-example deadline (timings on a loaded machine are not a test result) and
without an example database, so the suite is reproducible run to run.
"""

from hypothesis import settings

settings.register_profile("greymatch", derandomize=True, deadline=None, database=None)
settings.load_profile("greymatch")
