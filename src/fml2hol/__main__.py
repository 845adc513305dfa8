"""``python -m fml2hol``: the command line, as the ``fml2hol`` script runs it."""

import sys

from .cli import main

sys.exit(main())
