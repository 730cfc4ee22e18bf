"""``python -m hrw``: the ``hrw`` command line."""

from .cli import main

if __name__ == "__main__":
    main()
