"""`python -m pmpdas ...` runs the `pmpdas` command (`pmpdas.cli`)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
