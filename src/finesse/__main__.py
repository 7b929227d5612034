"""``python -m finesse``: the same command-line interface as ``finesse``."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
