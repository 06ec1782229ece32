"""braidforge: exact braid monodromy, monomial braid groups, and holonomy Lie algebras."""

__version__ = "0.1.0"

from . import arrangements, braid, cli, freegroup, garside, liealg, monomial, wiring  # noqa: F401,E402
