"""`python -m cogrelay VERB --spec FILE ...`: the command-line interface
of `cogrelay.cli`, runnable from a checkout without installing the
`cogrelay` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
