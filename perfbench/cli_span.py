"""Run one CLI command in this interpreter and record the span of ``main(argv)``.

Usage: ``python3 cli_span.py SPAN_FILE ARG...``; the traced ``cli`` workload
starts it in place of ``python -m assocspectra ARG...``.  The span's start and
end go to SPAN_FILE as JSON, read from the clock the other spans use.
"""

import json
import sys

from assocspectra.cli import main
from spans import now

if __name__ == "__main__":
    span_file, argv = sys.argv[1], sys.argv[2:]
    start = now()
    code = main(argv)
    sys.stdout.flush()
    end = now()
    with open(span_file, "w", encoding="utf-8") as fh:
        json.dump({"start": start, "end": end}, fh)
    sys.exit(code)
