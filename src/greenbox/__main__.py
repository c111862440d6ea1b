"""``python -m greenbox``: the same command as the ``greenbox`` script."""

from .cli import console_main

if __name__ == "__main__":
    console_main()
