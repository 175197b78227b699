"""Batch event-study engine: how news sentiment about a firm moves its own
stock price and the prices of its suppliers and clients, before and after
disclosure, validated end to end against a synthetic market with injected
known effects."""

__version__ = "0.1.0"
