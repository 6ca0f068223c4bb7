"""Seeded input generator for the benchmark.

Everything here uses only numpy and the benchmark's own formulas, so a
change to the program cannot change what the benchmark feeds it. The one
exception is the model file: its tensor names and shapes come from the
program (they are its file format), but every value comes from here.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from focus_forecast import container, model
from focus_forecast.clustering import FitMeta, PrototypeSet

P = 16  # segment length
K = 16  # prototypes
ALPHA = 0.2
NOISE_SIGMA = 0.25


@dataclass(frozen=True)
class Geometry:
    """Series size, split ratio and model shape of one workload."""

    n_steps: int
    n_entities: int
    ratio: tuple[float, float, float]
    lookback: int = 512
    horizon: int = 96
    d: int = 64
    m: int = 6

    @property
    def hyper(self) -> model.HyperParams:
        return model.HyperParams(
            p=P, d=self.d, m=self.m, k=K, lookback=self.lookback,
            horizon=self.horizon, n_entities=self.n_entities,
        )

    def split(self) -> tuple[int, int]:
        # same floor rule the program documents for its chronological split
        r_train, r_val, _ = self.ratio
        return int(np.floor(r_train * self.n_steps)), int(np.floor((r_train + r_val) * self.n_steps))

    def n_windows(self, partition: str) -> int:
        train_end, val_end = self.split()
        start, end = {"train": (0, train_end), "val": (train_end, val_end),
                      "test": (val_end, self.n_steps)}[partition]
        return max(0, end - start - self.lookback - self.horizon + 1)


@dataclass(frozen=True)
class Inputs:
    """Where a workload's input files live."""

    csv: str
    protos: str
    model: str

    @classmethod
    def under(cls, directory: str) -> "Inputs":
        return cls(*(os.path.join(directory, f) for f in ("series.csv", "protos.bin", "model.bin")))


def planted_templates() -> np.ndarray:
    """K zero-mean, unit-RMS length-P shapes: sinusoids of three
    frequencies at K phases, each with its own linear trend."""
    t = (np.arange(P) + 0.5) / P
    rows = []
    for i in range(K):
        w = np.sin(2 * np.pi * (1 + i % 3) * t + 2 * np.pi * i / K) + (0.8 - 0.1 * i) * (t - 0.5)
        w = w - w.mean()
        rows.append(w / np.sqrt(np.mean(w * w)))
    return np.array(rows)


def _series(geo: Geometry, templates: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Each entity is a run of seeded template draws plus Gaussian noise.

    Segmenting the train split drops its oldest (train_end mod P) steps,
    so the run is shifted to put template boundaries on that grid: every
    train segment is then one noisy template.
    """
    n_blocks = -(-geo.n_steps // P) + 1
    shift = P - geo.split()[0] % P
    ids = rng.integers(0, K, size=(geo.n_entities, n_blocks))
    clean = templates[ids].reshape(geo.n_entities, n_blocks * P)[:, shift : shift + geo.n_steps]
    noise = rng.normal(0.0, NOISE_SIGMA, size=clean.shape)
    return np.ascontiguousarray((clean + noise).T)


def _write_csv(path: str, values: np.ndarray) -> None:
    names = ",".join(f"e{j}" for j in range(values.shape[1]))
    np.savetxt(path, values, fmt="%.17g", delimiter=",", header=names, comments="")


def _model_params(geo: Geometry, protos: PrototypeSet, rng: np.random.Generator):
    """Fan-in uniform weights, unit gains and zero biases, drawn here."""
    shapes = model.init_params(geo.hyper, protos).arrays()
    arrays = {}
    for name in sorted(shapes):
        shape = shapes[name].shape
        if len(shape) == 2:
            bound = 1.0 / np.sqrt(shape[0])
            arrays[name] = rng.uniform(-bound, bound, size=shape)
        elif "gain" in name:
            arrays[name] = np.ones(shape)
        else:
            arrays[name] = np.zeros(shape)
    return model.params_from_arrays(geo.hyper, protos, arrays)


def write_inputs(directory: str, geo: Geometry, seed: int) -> Inputs:
    """Write the series CSV, the planted prototypes and a model file.

    The prototypes are the planted templates, so no workload depends on
    the clustering fit. The model carries train-split normalisation stats
    computed here and the workload's split ratio.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, geo.n_steps, geo.n_entities]))
    templates = planted_templates()
    values = _series(geo, templates, rng)
    paths = Inputs.under(directory)
    _write_csv(paths.csv, values)
    protos = PrototypeSet(templates, ALPHA, FitMeta(0, 0.0, seed))
    container.save_prototypes(paths.protos, protos)
    train = values[: geo.split()[0]]
    std = train.std(axis=0)
    norm = (train.mean(axis=0), np.where(std < 1e-8, 1.0, std))
    container.save_model(paths.model, _model_params(geo, protos, rng), norm, geo.ratio)
    return paths
