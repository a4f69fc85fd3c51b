import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# HYPOTHESIS_PROFILE=ci draws the same examples on every run; local runs
# keep hypothesis' random default
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
