"""``python -m qwalk``: the same command line tool as ``qwalk``."""

from qwalk.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
