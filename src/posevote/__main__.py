"""`python -m posevote ...` runs the posevote command line."""

from .cli import main

if __name__ == "__main__":
    main()
