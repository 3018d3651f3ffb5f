"""Adaptive model-selection estimation of a 1-periodic drift under semi-Markov/Levy noise."""

__version__ = "0.1.0"


class ConfigError(ValueError):
    """Raised for malformed, unknown, or inconsistent configuration."""
