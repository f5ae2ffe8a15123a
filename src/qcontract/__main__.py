"""Run the command-line interface as ``python -m qcontract``."""

import sys

from .cli import main

sys.exit(main())
