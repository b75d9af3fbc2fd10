import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# pure-Python curve arithmetic makes single examples slow and their
# timing host-dependent, so no example has a deadline
settings.register_profile("pmpdas", deadline=None)
settings.load_profile("pmpdas")
