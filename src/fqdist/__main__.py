"""python -m fqdist: the fqdist command line, as installed by the package."""

from .cli import app

app()
