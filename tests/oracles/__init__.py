"""Test oracles: slow, obviously-correct twins of production code."""
