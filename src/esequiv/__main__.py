"""`python -m esequiv`: the same command line as the `esequiv` script."""

from .cli import main

if __name__ == "__main__":
    main()
