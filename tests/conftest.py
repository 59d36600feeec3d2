"""One hypothesis profile for the whole suite.

derandomize=True draws the same examples on every run, so a failure can
be re-run as it was seen; deadline=None keeps a loaded host from failing
a property on timing alone.  Each @settings in the tests inherits both.
"""
from hypothesis import settings

settings.register_profile("qtomo", derandomize=True, deadline=None)
settings.load_profile("qtomo")
