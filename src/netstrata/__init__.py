"""Modeling, validation, and analysis of hierarchical multilayer networks."""

__version__ = "0.1.0"
