"""`python -m starfdr <command> ...`: the same command line as `starfdr`."""

from .cli import main

if __name__ == "__main__":
    main()
