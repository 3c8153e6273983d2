"""Command line entry point: ``python -m galbern``."""

import sys

from .cli import main

sys.exit(main())
