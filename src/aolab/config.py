"""Shared run configuration, and the window rule's fixed length and tolerance."""

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


# The window rule, the lab's convergence test at a finite horizon: each of the
# last WINDOW terms lies within TOL_CONV max(1, |L|) of their mean L, the limit.
WINDOW = 50
TOL_CONV = 1e-6


@dataclass(frozen=True)
class RunConfig:
    """Run settings.  The field defaults, read as class attributes (e.g.
    ``RunConfig.n_max``), are also the defaults of the CLI flags."""

    n_max: int = 2000
    seed: int = 0
    trials: int = 100

    def __post_init__(self):
        # Up to 4 WINDOW steps the trend test's two windows (``criteria.classify_orbits``),
        # the last and the one at row rows // 4, overlap or sit too close to show a trend.
        if self.n_max <= 4 * WINDOW:
            raise InvalidInputError(f"require n_max > 4 * WINDOW = {4 * WINDOW}, got n_max {self.n_max}")
        if self.trials < 1:
            raise InvalidInputError("trials must be positive")
