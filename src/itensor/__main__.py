"""``python -m itensor``: the ``itensor`` command without installing it,
e.g. ``PYTHONPATH=src python -m itensor check --class b tensor.json``."""

import sys

from .cli import main

sys.exit(main())
