"""Set-up probe: start cold, import the package, parse one sweep document.

Usage: python3 setup_probe.py <src-dir> <sweep-json>

Prints the ``time.monotonic()`` reading taken right after the document is
parsed.  The parent reads the same clock just before starting this process,
so the difference covers interpreter start, the imports of ris_sop, numpy and
scipy, and ``parse_config``.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])

from ris_sop.cli import parse_config  # noqa: E402  (needs the path above)

parse_config(sys.argv[2])
print(repr(time.monotonic()))
