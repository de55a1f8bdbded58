"""``python -m fbmlab``: the command-line interface of :mod:`fbmlab.cli`."""

from .cli import main

if __name__ == "__main__":
    main()
