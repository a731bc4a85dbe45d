"""End-to-end and per-layer benchmark for the gestemo pipeline; see README.md."""
