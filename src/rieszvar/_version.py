"""The package version; the single source read by the package, reports and packaging."""

__version__ = "0.1.0"
