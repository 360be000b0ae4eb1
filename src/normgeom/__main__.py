"""``python -m normgeom ...`` runs the command-line front end."""

from .cli import run_cli

raise SystemExit(run_cli())
