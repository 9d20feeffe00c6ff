"""Network randomness: node activity and observation noise.  Channel gains
are drawn by :meth:`dosp.objectives.PowerControlModel.sample_env` and
utility reception by :func:`dosp.estimator.sample_reception`.

Activity comes out as an :class:`ActiveSet`, the flat list of live
(replication, node) entries that every later per-slot stage runs on.

All samplers are pure functions of an owned :class:`numpy.random.Generator`;
slots within one replication are sequential, replications use disjoint
streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Literal, get_args

import numpy as np

from .core import ConfigError


Activity = Literal["binomial", "poisson"]  # poisson: large N, n_k capped at N
NoiseKind = Literal["gaussian", "uniform"]  # observation-noise laws
NOISE_KINDS = get_args(NoiseKind)
Fading = Literal["real_gaussian", "complex_gaussian"]

# Working-set budget, in 8-byte cells, of one batch of draws: it sets the
# rows of a binomial activity chunk (``_BLOCK_CELLS // N``), the slots of an
# :func:`dosp.optimizer.run_slots` block and the rows of a Monte-Carlo chunk
# in :mod:`dosp.harness`.  No output depends on it except under Poisson
# activity, whose blocks it sizes.
_BLOCK_CELLS = 1 << 17


@dataclass(frozen=True)
class NetworkConfig:
    """Static network parameters.

    ``q_activity`` is the per-slot probability that a node is active,
    ``q_reception`` the per-ordered-pair probability that one active node's
    utility observation reaches another active node in the same slot.
    """

    n_nodes: int
    q_activity: float
    q_reception: float
    activity: Activity = "binomial"
    noise: NoiseKind = "gaussian"  # observation-noise law

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ConfigError("n_nodes must be >= 1")
        if not 0.0 < self.q_activity <= 1.0:
            raise ConfigError(f"q_activity must lie in (0, 1], got {self.q_activity}")
        if not 0.0 < self.q_reception <= 1.0:
            raise ConfigError(f"q_reception must lie in (0, 1], got {self.q_reception}")
        if self.activity not in get_args(Activity):
            raise ConfigError(f"unknown activity model {self.activity!r}")
        if self.noise not in NOISE_KINDS:
            raise ConfigError(f"unknown noise model {self.noise!r}")

    @property
    def expected_active(self) -> float:
        """Mean number of active nodes per slot (n_nodes * q_activity)."""
        return self.n_nodes * self.q_activity


@dataclass(frozen=True)
class ChannelSpec:
    """Per-link fading statistics for the interference channel.

    ``fading='real_gaussian'`` draws a real zero-mean Gaussian amplitude h with
    the configured variance and uses the power gain s = h**2;
    ``'complex_gaussian'`` uses the Rayleigh-fading equivalent, s ~ Exp(mean=var).
    Both give E[s_ij] = var, so mean-level behaviour is identical.
    """

    var_direct: float = 1.0
    var_cross: float = 0.1
    noise_floor: float = 0.2
    fading: Fading = "real_gaussian"

    def __post_init__(self):
        if min(self.var_direct, self.var_cross, self.noise_floor) <= 0:
            raise ConfigError("channel variances and noise floor must be positive")
        if self.fading not in get_args(Fading):
            raise ConfigError(f"unknown fading model {self.fading!r}")


def _offsets(counts: np.ndarray) -> np.ndarray:
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


@dataclass(eq=False)
class ActiveSet:
    """The live (row, node) entries of a batch of slots, as one flat list.

    Entries run row by row, nodes ascending within a row; row ``b`` owns
    entries ``offsets[b]:offsets[b + 1]``.  Per-entry arrays of length
    ``size`` (actions, step indices, utilities, estimates) follow this order.
    """

    shape: tuple[int, int]  # (B, N)
    batch_idx: np.ndarray  # (A,) row of each entry
    node_idx: np.ndarray  # (A,) node of each entry
    offsets: np.ndarray  # (B+1,) start of each row's block

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "ActiveSet":
        rows, n = mask.shape
        batch_idx, node_idx = np.divmod(np.flatnonzero(mask), n)
        return cls(mask.shape, batch_idx, node_idx,
                   _offsets(np.bincount(batch_idx, minlength=rows)))

    @property
    def size(self) -> int:
        return self.node_idx.size

    @property
    def counts(self) -> np.ndarray:
        """(B,) number of live entries per row."""
        return self.offsets[1:] - self.offsets[:-1]

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(i, j) entry indices of every ordered pair of entries in one row,
        self-pairs included: sum_b n_b^2 pairs, row by row, ordered by i and
        then j, as in a dense (B, N, N) block restricted to the live entries."""
        per_entry = self.counts[self.batch_idx]  # row size seen from each entry
        first = np.repeat(np.arange(self.size), per_entry)
        block = np.cumsum(per_entry) - per_entry  # first pair of each entry
        second = np.arange(first.size) - np.repeat(block - self.offsets[self.batch_idx], per_entry)
        return first, second

    def rows(self, start: int, stop: int) -> "ActiveSet":
        """Rows ``start:stop`` as their own list, renumbered from 0."""
        lo, hi = self.offsets[start], self.offsets[stop]
        return ActiveSet((stop - start, self.shape[1]), self.batch_idx[lo:hi] - start,
                         self.node_idx[lo:hi], self.offsets[start:stop + 1] - lo)

    def stack(self, below: "ActiveSet") -> "ActiveSet":
        """This list's rows followed by those of ``below``."""
        return ActiveSet((self.shape[0] + below.shape[0], self.shape[1]),
                         np.concatenate((self.batch_idx, below.batch_idx + self.shape[0])),
                         np.concatenate((self.node_idx, below.node_idx)),
                         np.concatenate((self.offsets[:-1], below.offsets + self.size)))

    def without_empty_rows(self) -> "ActiveSet":
        """The same entries with the rows that hold none dropped."""
        counts = self.counts
        kept = counts > 0
        rank = np.cumsum(kept) - 1
        return ActiveSet((int(kept.sum()), self.shape[1]), rank[self.batch_idx],
                         self.node_idx, _offsets(counts[kept]))


def sample_activity(cfg: NetworkConfig, rng: np.random.Generator, rows: int) -> ActiveSet:
    """Draw ``rows`` independent slots' activity as their live-entry list.

    Binomial rows draw one uniform per (row, node), in chunks of about
    ``_BLOCK_CELLS // N`` rows of which only the live keys are kept;
    consecutive fills of a stream concatenate, so this consumes it exactly
    as ``rows`` single-row draws would.  Poisson rows draw all their counts
    first and then all their nodes, so a block is not the concatenation of
    single-row draws; the law of each row is the same.
    """
    n = cfg.n_nodes
    if cfg.activity == "binomial":
        chunk = max(1, _BLOCK_CELLS // n)
        # flat (row, node) keys of the live cells, chunk by chunk; no rows
        # make one empty chunk
        keys = np.concatenate([
            np.flatnonzero(rng.random((min(chunk, rows - lo), n)) < cfg.q_activity) + lo * n
            for lo in range(0, max(rows, 1), chunk)])
        batch_idx, node_idx = np.divmod(keys, n)
        return ActiveSet((rows, n), batch_idx, node_idx,
                         _offsets(np.bincount(batch_idx, minlength=rows)))
    # Poisson large-N regime: n_k ~ Poisson(lambda) capped at N, nodes uniform.
    counts = np.minimum(rng.poisson(cfg.expected_active, rows), n)
    # A row more than half full draws the nodes it leaves out, so no row
    # draws more than N/2 nodes and each redraw below lands on a new node
    # with probability at least 1/2.
    flip = 2 * counts > n
    drawn = np.where(flip, n - counts, counts)
    # flat (row, node) keys; redraw the repeats within a row until every key
    # is distinct.  Every node label is treated alike and each row ends with a
    # fixed number of distinct nodes, so that set is uniform over its size.
    keys = np.repeat(np.arange(rows, dtype=np.int64) * n, drawn) + rng.integers(0, n, drawn.sum())
    while True:
        keys.sort()  # row-major, nodes ascending
        repeats = np.flatnonzero(keys[1:] == keys[:-1]) + 1
        if not repeats.size:
            break
        keys[repeats] += rng.integers(0, n, repeats.size) - keys[repeats] % n
    if flip.any():
        # a flipped row keeps the nodes it did not draw
        full = (np.flatnonzero(flip)[:, None] * n + np.arange(n)).ravel()
        keys = np.setxor1d(keys, full, assume_unique=True)
    return ActiveSet((rows, n), *np.divmod(keys, n), _offsets(counts))


def sample_obs_noise(sigma_eta: float, size, rng: np.random.Generator, kind: str = "gaussian") -> np.ndarray:
    """Zero-mean observation noise with variance sigma_eta**2, of law ``kind``."""
    if kind not in NOISE_KINDS:
        raise ValueError(f"unknown noise kind {kind!r}, expected one of {NOISE_KINDS}")
    if sigma_eta < 0:
        raise ValueError("sigma_eta must be >= 0")
    if sigma_eta == 0:
        return np.zeros(size)
    if kind == "gaussian":
        return sigma_eta * rng.standard_normal(size)
    half = sigma_eta * np.sqrt(3.0)
    return rng.uniform(-half, half, size=size)
