"""End-to-end benchmark: trace replay, served launches and the experiment
battery, with per-layer self time from a traced run (see README.md)."""
