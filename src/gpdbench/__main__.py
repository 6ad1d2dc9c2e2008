"""Run the command line as ``python -m gpdbench``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
