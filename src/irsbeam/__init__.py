"""Fast beam alignment for IRS-assisted mmWave/THz links."""

__version__ = "0.1.0"
