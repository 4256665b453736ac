"""Shared exception types."""


class AttackError(RuntimeError):
    """Key recovery failed: the public data admits no solution."""


class SizeCapError(ValueError):
    """A well-formed input asks for more work than the size caps allow."""
