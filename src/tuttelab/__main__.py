"""``python -m tuttelab``: the same command line as the ``tuttelab`` script.

Importing this module, as a walk over the package's modules does, runs
nothing."""

import sys

from tuttelab.cli import main

if __name__ == "__main__":
    sys.exit(main())
