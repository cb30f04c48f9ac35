"""End-to-end and per-layer benchmark of the repro system (see README.md)."""
