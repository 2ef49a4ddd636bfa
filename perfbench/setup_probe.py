"""Set-up probe: prints time.monotonic() when `import nstl.cli` returns.

run.py spawns it and subtracts the spawn time, so the figure covers
interpreter start-up and every import the CLI needs (numpy included).
"""

import time

import nstl.cli  # noqa: F401  (the import is what is timed)

print(repr(time.monotonic()))
