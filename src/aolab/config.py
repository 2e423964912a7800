"""Shared run configuration."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .errors import InvalidInputError


def default_seed() -> int:
    """Default RNG seed; the AOLAB_SEED environment variable overrides 0."""
    raw = os.environ.get("AOLAB_SEED")
    if raw is None:
        return 0
    try:
        return int(raw) & (2**64 - 1)
    except ValueError as exc:
        raise InvalidInputError(f"AOLAB_SEED must be an integer, got {raw!r}") from exc


@dataclass(frozen=True)
class RunConfig:
    """Run settings.  The field defaults, read as class attributes (e.g.
    ``RunConfig.window``), are also the defaults of the CLI flags and of
    the window rule."""

    n_max: int = 2000
    window: int = 50
    tol_conv: float = 1e-6
    seed: int = field(default_factory=default_seed)
    trials: int = 100

    def __post_init__(self):
        if self.n_max < 1 or self.window < 1 or self.window >= self.n_max:
            raise InvalidInputError("require 1 <= window < n_max")
        if self.tol_conv <= 0:
            raise InvalidInputError("tolerances must be positive")
        if self.trials < 1:
            raise InvalidInputError("trials must be positive")
