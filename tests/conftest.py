"""One hypothesis profile for every property test: the same examples on
every run, no example database, and no per-example deadline.  A test's own
``@settings`` sets only ``max_examples``."""
from hypothesis import settings

settings.register_profile("ionshuttle", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("ionshuttle")
