"""Shared test configuration.

One hypothesis profile for every property test: no deadline, examples
derived from the test itself rather than a random seed, and no example
database, so property runs are reproducible. Per-test example counts and
health-check suppressions stay on the tests.
"""

import os
import tempfile

from hypothesis import settings

# Hypothesis also caches the literals it reads from local source files,
# whatever the database setting; keep that cache out of the working tree.
os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY", os.path.join(tempfile.gettempdir(), "tsakit-hypothesis")
)

settings.register_profile("tsakit", deadline=None, derandomize=True, database=None)
settings.load_profile("tsakit")
