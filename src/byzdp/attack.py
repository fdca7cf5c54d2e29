"""Byzantine worker behaviors under an omniscient attacker.

Both implemented attacks read the honest submissions of the current round
(after noise and momentum) and send one identical vector from every forged
worker: the honest mean shifted by zeta times an attack direction. ``little``
subtracts zeta times the coordinate-wise standard deviation of the honest
submissions; ``empire`` scales the honest mean by (1 - zeta).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractViolationError, as_real

ATTACK_KINDS = ("none", "little", "empire")

DEFAULT_ZETA = {"none": 0.0, "little": 1.0, "empire": 1.1}


@dataclass(frozen=True)
class AttackSpec:
    """Attack kind and magnitude; zeta defaults to 1 for little, 1.1 for empire."""

    kind: str
    zeta: float | None = None

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ConfigurationError(f"unknown attack kind '{self.kind}'")
        zeta = DEFAULT_ZETA[self.kind] if self.zeta is None else self.zeta
        object.__setattr__(self, "zeta", as_real("zeta", zeta, ConfigurationError, low=0))


def forge(spec: AttackSpec, honest_grads) -> np.ndarray:
    """The vector every forged worker sends this round.

    none:   the honest coordinate-wise mean gbar.
    little: gbar - zeta * sigma with sigma the coordinate-wise population
            standard deviation (1/k normalization) of the honest vectors.
    empire: (1 - zeta) * gbar, so zeta = 1.1 flips and shrinks the mean.
    """
    g = np.asarray(honest_grads, dtype=np.float64)
    if g.ndim != 2 or g.shape[0] < 1:
        raise ContractViolationError("need at least one honest gradient")
    gbar = g.mean(axis=0)
    if spec.kind == "little":
        return gbar - spec.zeta * g.std(axis=0)
    if spec.kind == "empire":
        return (1.0 - spec.zeta) * gbar
    return gbar
