"""Entry point for ``python -m treecrdt``."""

import sys

from .cli import main

sys.exit(main())
