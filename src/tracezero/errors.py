"""The package's one exception type: a command that raises it exits 2."""


class InvalidInputError(ValueError):
    """Input violates a documented precondition (bad shape, wrong trace, ...)."""
