"""``python -m routegame <command>``: the command-line front end, as the
``routegame`` console script runs it."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
