"""Seeded samplers and quantile functions for the Hall-class test distributions.

Three families with analytic quantile functions, sampled by inverse
transform from a counter-based generator (numpy Philox) so that any
(spec, n, seed) triple reproduces bit-identically on every platform:

* strict Pareto:  1 - F(x) = x^(-1/gamma), x >= 1 (exact power law, no
  second-order term);
* Burr:           F(x) = 1 - (1 + x^(-rho/gamma))^(1/rho), Hall beta = 1;
* Kumaraswamy generalized exponential:
                  F(x) = 1 - (1 - exp(-x^(rho/gamma)))^(-1/rho), Hall beta = 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import SecondOrderModel
from .errors import DomainError
from .stats import Sample, SampleBlock

FAMILIES = ("pareto", "burr", "kumaraswamy")

#: Algorithm identifier recorded in simulation manifests.
GENERATOR_NAME = "numpy-philox4x64/seedsequence"

#: |log (1-p)^rho| beyond which exp of it is taken for the power itself
#: (exp(700) and exp(-700) are still normal doubles).
_FAR_TAIL = 700.0
_LOG_2 = math.log(2.0)


@dataclass(frozen=True)
class DistSpec:
    family: str
    gamma: float
    rho: float | None = None
    scale: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}")
        if self.gamma <= 0:
            raise DomainError(f"gamma must be > 0, got {self.gamma}")
        if self.family != "pareto":
            if self.rho is None or not self.rho < 0:
                raise DomainError(f"{self.family} requires rho < 0, got {self.rho}")
        if self.scale <= 0:
            raise DomainError(f"scale must be > 0, got {self.scale}")


def quantile(d: DistSpec, p):
    """Analytic inverse CDF, vectorized over p in (0, 1).

    Burr and Kumaraswamy work with a = log (1-p)^(+-rho) so that no power of
    1-p overflows or underflows: where |a| > _FAR_TAIL the power is taken as
    exp(a) itself and the quantile as exp(a * exponent), exact to double
    precision there, and finite for every p up to 1 - 2^-53. The far-tail
    form is computed only on the entries that take it (a scalar p goes
    through 0-d arrays, which keep numpy's scalar arithmetic and take masked
    assignment).
    """
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise DomainError("quantile requires 0 < p < 1")
    g = d.gamma
    if d.family == "pareto":
        x = (1.0 - p) ** (-g)
    elif d.family == "burr":
        rho = d.rho
        a = np.asarray(rho * np.log1p(-p))  # log (1-p)^rho > 0
        with np.errstate(over="ignore"):
            x = np.asarray(np.expm1(a) ** (-g / rho))
            far = a > _FAR_TAIL
            if far.any():
                x[far] = np.exp(a[far] * (-g / rho))
    else:  # kumaraswamy
        rho = d.rho
        a = np.asarray(-rho * np.log1p(-p))  # log (1-p)^(-rho) < 0
        with np.errstate(divide="ignore"):
            # -log(1 - exp(a)), each form used on the side of -log 2 where
            # it does not cancel
            y = np.where(a > -_LOG_2, -np.log(-np.expm1(a)), -np.log1p(-np.exp(a)))
            x = np.asarray(y ** (g / rho))
            far = a < -_FAR_TAIL
            if far.any():
                x[far] = np.exp(a[far] * (g / rho))
    x = d.scale * x
    return float(x) if x.ndim == 0 else x


def substream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic generator for a derived stream, e.g. one replication.

    The stream is keyed by (seed, *key) through numpy's SeedSequence, so a
    single replication of an experiment is reproducible in isolation; this
    is the per-key form of the streams that :func:`draw_block` draws.
    """
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, key)))


def _seed_sequence(seed: int, key) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(v) for v in key))


def draw_block(d: DistSpec, n: int, seed: int, stream_keys) -> np.ndarray:
    """n i.i.d. draws per stream key, stacked as rows, unchecked: where a
    quantile underflows to 0.0 the row is not a valid sample.

    Row i is the quantile of the first n doubles of
    ``substream(seed, *stream_keys[i])`` (exact zeros nudged to 2^-53). A
    Philox stream is defined by its key at counter 0, so one Philox is
    re-keyed per row, as ``Philox(SeedSequence)`` seeds itself: key from
    ``generate_state(2, uint64)``, counter 0, empty buffer.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    bits = np.random.Philox(0)
    gen = np.random.Generator(bits)
    # buffer_pos 4 marks the 4-word output buffer empty; tuples, not arrays,
    # keep the state setter cheap
    zeros = (0, 0, 0, 0)
    state = {"bit_generator": "Philox", "state": {"counter": zeros, "key": None},
             "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    u = np.empty((len(stream_keys), n))
    for row, key in zip(u, stream_keys):
        state["state"]["key"] = _seed_sequence(seed, key).generate_state(2, np.uint64)
        bits.state = state
        gen.random(out=row)
    # u is in [0, 1); nudge exact zeros so the quantile argument stays in (0, 1)
    u[u == 0.0] = 2.0**-53
    return quantile(d, u)


def sample_block(d: DistSpec, n: int, seed: int, stream_keys) -> SampleBlock:
    """One sample of n i.i.d. draws per stream key, stacked as rows; row i is
    ``sample(d, n, seed, stream_key=stream_keys[i])``."""
    return SampleBlock.from_values(draw_block(d, n, seed, stream_keys))


def sample(d: DistSpec, n: int, seed: int, *, stream_key: tuple[int, ...] = ()) -> Sample:
    """n i.i.d. draws via inverse transform; identical (d, n, seed) gives
    identical output."""
    (s,) = sample_block(d, n, seed, [stream_key]).samples()
    return s


def hall_model(d: DistSpec) -> SecondOrderModel:
    """Map a family to its Hall-class parameters (gamma, rho, beta).

    A strict Pareto tail has no second-order term; it is returned with the
    beta = 0 sentinel (and rho = -inf) which the AMSE optimum rejects.
    """
    if d.family == "burr":
        return SecondOrderModel(d.gamma, d.rho, 1.0)
    if d.family == "kumaraswamy":
        return SecondOrderModel(d.gamma, d.rho, 0.5)
    return SecondOrderModel(d.gamma, -math.inf, 0.0)
