"""`python -m tskfuzzy`: the command line, without the installed script."""

import sys

from .cli import main

sys.exit(main())
