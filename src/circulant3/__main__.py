"""``python -m circulant3``: the command-line front end."""
from circulant3.cli import main

raise SystemExit(main())
