"""Run the command line interface: `python -m stretchfactor ...`."""

from .cli import main

if __name__ == "__main__":
    main()
