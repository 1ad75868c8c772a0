"""`python -m wfcolor`: the command line of wfcolor.cli, without an install."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
