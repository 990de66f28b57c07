"""Hypothesis settings profiles; HYPOTHESIS_PROFILE picks one (default: Hypothesis's own).

`ci` prints the reproduction blob of every failing example, so a failure on a
CI runner can be replayed locally with `@reproduce_failure`.
"""

import os

from hypothesis import settings

settings.register_profile("ci", print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
