"""``python -m mfcontrol`` runs the command-line driver."""

from .cli import console_entry

if __name__ == "__main__":
    console_entry()
