"""``python -m covact``: the command-line interface of covact.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
