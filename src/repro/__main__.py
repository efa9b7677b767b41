"""``python -m repro`` entry point: a library error prints one
``repro: error: <message>`` line and exits 1, not a traceback."""

import sys

from repro.cli import main
from repro.errors import ReproError

if __name__ == "__main__":
    try:
        code = main()
    except ReproError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        code = 1
    sys.exit(code)
