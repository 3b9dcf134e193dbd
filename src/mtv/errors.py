"""The package's error type for broken invariants.

``InvariantError`` is a broken invariant of the computation itself (CLI
exit 3), raised with a message naming the values.  It subclasses
RuntimeError, so a caller that catches that still catches it.  Bad
input from outside the program is a plain ValueError (CLI exit 2).
"""


class InvariantError(RuntimeError):
    """A structural fact the computation relies on failed to hold."""
