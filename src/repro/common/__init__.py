"""Shared low-level utilities (deterministic hashing, checkpoint prefix sums)."""
