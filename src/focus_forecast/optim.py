"""AdamW with decoupled weight decay, on plain numpy arrays."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError

# Adam's moment decays and denominator guard, at the values of Kingma & Ba
# (ICLR 2015) that AdamW keeps (Loshchilov & Hutter, ICLR 2019); no caller
# varies them
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass(frozen=True)
class OptimizerConfig:
    """Optimizer and training-loop hyperparameters.

    Clustering uses only the optimizer fields; the loop fields drive the
    forecaster's mini-batch training.
    """

    lr: float = 1e-3
    weight_decay: float = 1e-4
    max_epochs: int = 100
    batch_size: int = 32
    patience: int = 5
    seed: int = 0

    def __post_init__(self):
        # written so that NaN fails each comparison
        if not 0 <= self.lr < math.inf:
            raise ConfigError(f"lr must be finite and >= 0, got {self.lr}")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.max_epochs < 1 or self.batch_size < 1 or self.patience < 0:
            raise ConfigError(
                "need max_epochs >= 1, batch_size >= 1 and patience >= 0, got "
                f"{self.max_epochs}, {self.batch_size} and {self.patience}"
            )


class AdamW:
    """Decoupled weight decay Adam over a dict of named tensors.

    m_t = b1 m + (1-b1) g;  v_t = b2 v + (1-b2) g^2
    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps) - lr * wd * theta

    lr and wd come from the config; b1, b2 and eps are the module
    constants BETA1, BETA2 and EPS. v tends to g^2, so a step whose g^2
    is not finite (|g| past ~1.3e154, or NaN) raises NumericalError
    before it changes anything.
    """

    def __init__(self, cfg: OptimizerConfig):
        self.cfg = cfg
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """Update params in place; iteration order is sorted by name."""
        for name in params:
            gmax = float(np.abs(grads[name]).max(initial=0.0))
            if not math.isfinite(gmax * gmax):  # Python floats: inf, no overflow warning
                raise NumericalError(
                    f"squared gradient of '{name}' is not finite (max |g| = {gmax:.3g})"
                )
        cfg = self.cfg
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        for name in sorted(params):
            g = grads[name]
            p = params[name]
            if name not in self._m:
                self._m[name] = np.zeros_like(p)
                self._v[name] = np.zeros_like(p)
            m = self._m[name]
            v = self._v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            m_hat = m / bc1
            v_hat = v / bc2
            p -= cfg.lr * m_hat / (np.sqrt(v_hat) + EPS)
            if cfg.weight_decay != 0.0:
                p -= cfg.lr * cfg.weight_decay * p
