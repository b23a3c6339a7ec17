"""Outside-in benchmark of the serving simulator (see README.md)."""
