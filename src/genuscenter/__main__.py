"""``python -m genuscenter``: the command line of ``genuscenter.cli``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
