"""Error types shared across the package."""


class ConfigError(Exception):
    """Invalid configuration file, option combination, or malformed input data."""


class ResourceLimitError(Exception):
    """Problem size exceeds a hard resource guard (node cap, qubit cap, enumeration cap)."""
