"""End-to-end and per-layer benchmark (see README.md)."""
