"""Shared run configuration."""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import InvalidInputError


def default_seed() -> int:
    """The CLI's default RNG seed when --seed is absent: the AOLAB_SEED
    environment variable, else 0."""
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
    seed: int = 0
    trials: int = 100

    def __post_init__(self):
        if self.window < 1 or self.window >= self.n_max:
            raise InvalidInputError(f"require 1 <= window < n_max, got window {self.window} and n_max {self.n_max}")
        # Fewer than 4 rows (n = 0..n_max) give the envelope fit nothing to
        # fit, and the r < 1 cross-check no two distinct rows to compare.
        if self.n_max < 3:
            raise InvalidInputError(f"require n_max >= 3, got n_max {self.n_max}")
        if not 0 < self.tol_conv < float("inf"):  # NaN fails too
            raise InvalidInputError("tolerances must be positive and finite")
        if self.trials < 1:
            raise InvalidInputError("trials must be positive")
