"""`python -m qaction`: the qaction command line without an installed console script."""

from .cli import main

if __name__ == "__main__":
    main(prog_name="qaction")
