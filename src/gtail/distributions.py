"""Seeded samplers and quantile functions for the Hall-class test distributions.

Three families with analytic quantile functions, sampled by inverse
transform from a counter-based generator (numpy Philox) so that any
(spec, n, seed) triple reproduces bit-identically on one numpy build with
one set of CPU kernels. numpy picks the SIMD kernels of the quantile's exp,
log1p, expm1 and power for the CPU at run time, and another set (with or
without AVX-512, say) can change the last bits of the draws:

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
from .stats import Sample

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
        if not 0 < self.gamma < math.inf:  # NaN too
            raise DomainError(f"gamma must be finite and > 0, got {self.gamma}")
        if self.family != "pareto" and (self.rho is None or not -math.inf < self.rho < 0):
            raise DomainError(f"{self.family} requires a finite rho < 0, got {self.rho}")
        if not 0 < self.scale < math.inf:
            raise DomainError(f"scale must be finite and > 0, got {self.scale}")


def quantile(d: DistSpec, p):
    """Analytic inverse CDF, vectorized over p in (0, 1).

    Burr and Kumaraswamy work with a = log (1-p)^(+-rho) so that no power of
    1-p overflows or underflows: where |a| > _FAR_TAIL the power is taken as
    exp(a) itself and the quantile as exp(a * exponent), exact to double
    precision there, and finite for every p up to 1 - 2^-53. The far-tail
    form is computed only on the entries that take it. A scalar p is taken
    as a one-element array, so its quantile is, bit for bit, that of the
    same p in an array, as draw_block passes.
    """
    scalar = np.ndim(p) == 0
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if not np.all((p > 0.0) & (p < 1.0)):  # NaN too
        raise DomainError("quantile requires 0 < p < 1")
    g, rho = d.gamma, d.rho
    if d.family == "pareto":
        x = (1.0 - p) ** (-g)
    elif d.family == "burr":
        a = rho * np.log1p(-p)  # log (1-p)^rho > 0
        with np.errstate(over="ignore"):
            x = np.expm1(a) ** (-g / rho)
            far = a > _FAR_TAIL
            if far.any():
                x[far] = np.exp(a[far] * (-g / rho))
    else:  # kumaraswamy
        a = -rho * np.log1p(-p)  # log (1-p)^(-rho) < 0
        with np.errstate(divide="ignore"):
            # -log(1 - exp(a)), each form used on the side of -log 2 where
            # it does not cancel
            y = np.where(a > -_LOG_2, -np.log(-np.expm1(a)), -np.log1p(-np.exp(a)))
            x = y ** (g / rho)
            far = a < -_FAR_TAIL
            if far.any():
                x[far] = np.exp(a[far] * (g / rho))
    x = d.scale * x
    return float(x[0]) if scalar else x


def _stream_int(v) -> int:
    v = int(v)
    if v < 0:
        raise DomainError(f"seeds and stream keys must be >= 0, got {v}")
    return v


_MASK32 = 0xFFFFFFFF
# numpy.random.SeedSequence's hash constants; its pool holds 4 words
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(v) -> list[int]:
    """A seed or key word as SeedSequence splits it: 32-bit words, low first."""
    v = _stream_int(v)
    words = [v & _MASK32]
    while v := v >> 32:
        words.append(v & _MASK32)
    return words


def _hash_consts(init: int, mult: int, calls: int) -> np.ndarray:
    """SeedSequence's hash constant before each of its hashmix calls and after
    the last: init * mult^t mod 2^32 (uint32 products wrap)."""
    return np.cumprod([init] + [mult] * calls, dtype=np.uint32)


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix, one call per entry of the last axis; the
    constants are those of these calls and the one after them."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ value >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of pool words x with hashed words y."""
    x = _MIX_L * x - _MIX_R * y
    return x ^ x >> 16


def _philox_keys(seed: int, keys) -> np.ndarray:
    """Row i is ``SeedSequence(entropy=seed, spawn_key=keys[i])
    .generate_state(2, np.uint64)``, numpy's Philox key for that stream,
    hashed for all rows at once.

    The entropy is the seed's words, padded with zeros to the pool size,
    then the key's words. The seed part is the same in every row, so the
    pool it makes is ``SeedSequence(seed).pool`` (which hashes zeros into
    the words the seed does not fill); each key word is then mixed into
    every pool word of every row by one numpy pass, in groups of rows with
    the same number of key words.
    """
    seed = _stream_int(seed)
    seed_pool = np.random.SeedSequence(seed).pool
    # hashmix calls so far: 4 to fill the pool, 12 to cross-mix it, 4 per
    # seed word past the pool; then 4 per key word
    start = 16 + 4 * max(0, len(_words(seed)) - 4)
    entropy = [[w for v in key for w in _words(v)] for key in keys]
    consts = _hash_consts(_INIT_A, _MULT_A, start + 4 * max(map(len, entropy), default=0))
    groups = {}
    for row, words in enumerate(entropy):
        groups.setdefault(len(words), []).append(row)
    pool = np.empty((len(keys), 4), dtype=np.uint32)
    for size, rows in groups.items():
        words, mixer = np.array([entropy[row] for row in rows], dtype=np.uint32), seed_pool
        for c, t in enumerate(range(start, start + 4 * size, 4)):
            mixer = _mix(mixer, _hashmix(words[:, c, None], consts[t:t + 5]))
        pool[rows] = mixer
    # generate_state: 4 uint32 words from the pool, viewed as 2 uint64
    return _hashmix(pool, _hash_consts(_INIT_B, _MULT_B, 4)).view(np.uint64)


def draw_block(d: DistSpec, n: int, seed: int, stream_keys) -> np.ndarray:
    """n i.i.d. draws per stream key, stacked as rows, unchecked: where a
    quantile underflows to 0.0 the row is not a valid sample.

    Row i is the quantile of the first n doubles of numpy's
    ``Generator(Philox(SeedSequence(seed, spawn_key=stream_keys[i])))``, with
    exact zeros nudged to 2^-53. A Philox stream is defined by its key at
    counter 0, so one Philox is re-keyed per row, as ``Philox(SeedSequence)``
    seeds itself: counter 0, empty buffer, and the key from
    ``generate_state(2, uint64)``, which ``_philox_keys`` hashes for all rows
    in one numpy pass. A negative seed or key word raises DomainError.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    keys = _philox_keys(seed, stream_keys).tolist()
    bits = np.random.Philox(0)
    gen = np.random.Generator(bits)
    # buffer_pos 4 marks the 4-word output buffer empty; tuples and lists,
    # not arrays, keep the state setter cheap
    zeros = (0, 0, 0, 0)
    state = {"bit_generator": "Philox", "state": {"counter": zeros, "key": None},
             "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    u = np.empty((len(keys), n))
    for row, key in zip(u, keys):
        state["state"]["key"] = key
        bits.state = state
        gen.random(out=row)
    # u is in [0, 1); nudge exact zeros so the quantile argument stays in (0, 1)
    u[u == 0.0] = 2.0**-53
    return quantile(d, u)


def sample(d: DistSpec, n: int, seed: int, *, stream_key: tuple[int, ...] = ()) -> Sample:
    """n i.i.d. draws via inverse transform; identical (d, n, seed) gives
    identical output."""
    return Sample.from_values(draw_block(d, n, seed, [stream_key]))


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
