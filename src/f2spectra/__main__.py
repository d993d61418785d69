"""``python -m f2spectra``: the command line of ``f2spectra.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
