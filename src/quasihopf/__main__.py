"""``python -m quasihopf ARGS`` runs the ``qhopf`` command line."""

import sys

from .cli import main

if __name__ == "__main__":  # importing the module (as package walkers do) runs nothing
    sys.exit(main())
