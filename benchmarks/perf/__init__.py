"""Wall-clock benchmark for recurring queries (see README.md)."""
