"""Run the command line as ``python -m weightpoly``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
