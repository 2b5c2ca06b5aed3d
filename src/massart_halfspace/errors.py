"""Exception types shared across the package."""
from __future__ import annotations


class UnderpoweredCheckError(RuntimeError):
    """A statistical check cannot reach its precision target at the sample cap.

    Raised instead of returning a fail verdict, so that "not enough data"
    is never conflated with "the property is false".
    """


class PsgdDivergenceError(RuntimeError):
    """Projected SGD hit a non-finite or zero-norm update."""

    def __init__(self, step: int, detail: str):
        self.step = step
        super().__init__(f"psgd aborted at step {step}: {detail}")


class ConfigError(ValueError):
    """An experiment config file is malformed or inconsistent."""
