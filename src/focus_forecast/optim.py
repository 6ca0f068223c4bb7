"""AdamW with decoupled weight decay, on plain numpy arrays."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class OptimizerConfig:
    """Optimizer and training-loop hyperparameters.

    Clustering uses only the optimizer fields; the loop fields drive the
    forecaster's mini-batch training.
    """

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 1e-4
    max_epochs: int = 100
    batch_size: int = 32
    patience: int = 5
    seed: int = 0

    def __post_init__(self):
        # written so that NaN fails each comparison
        if not 0 <= self.lr < math.inf:
            raise ConfigError(f"lr must be finite and >= 0, got {self.lr}")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ConfigError(f"betas must lie in (0, 1), got {self.beta1}, {self.beta2}")
        if not 0 < self.eps < math.inf:
            raise ConfigError(f"eps must be finite and > 0, got {self.eps}")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.max_epochs < 0 or self.batch_size < 1 or self.patience < 0:
            raise ConfigError("max_epochs/batch_size/patience out of range")


class AdamW:
    """Decoupled weight decay Adam over a dict of named tensors.

    m_t = b1 m + (1-b1) g;  v_t = b2 v + (1-b2) g^2
    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps) - lr * wd * theta
    """

    def __init__(self, cfg: OptimizerConfig):
        self.cfg = cfg
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """Update params in place; iteration order is sorted by name."""
        cfg = self.cfg
        self.t += 1
        bc1 = 1.0 - cfg.beta1**self.t
        bc2 = 1.0 - cfg.beta2**self.t
        for name in sorted(params):
            g = grads[name]
            p = params[name]
            if name not in self._m:
                self._m[name] = np.zeros_like(p)
                self._v[name] = np.zeros_like(p)
            m = self._m[name]
            v = self._v[name]
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * g * g
            m_hat = m / bc1
            v_hat = v / bc2
            p -= cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps)
            if cfg.weight_decay != 0.0:
                p -= cfg.lr * cfg.weight_decay * p
