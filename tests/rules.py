"""Message patterns of the package's argument rules, shared by the test modules."""

import re


def real_rule(name, interval, x):
    """The full message of the real rule for x, as a pattern for ``pytest.raises``."""
    message = f"{name} must be a finite real number in {interval} (got {x!r})"
    return f"^{re.escape(message)}$"


def array_rule(name, interval, x):
    """The full message of the array rule for its first offending entry x, as a pattern."""
    message = f"every {name} must be a finite real number in {interval} (got {x!r})"
    return f"^{re.escape(message)}$"
