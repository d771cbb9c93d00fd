"""Sensing-matrix constructions for compressive sensing.

The paper's passive CS encoder uses **s-Sparse Random Binary Matrices**
(s-SRBM, after Zhao et al. [9]): every column of the M x N_phi matrix
contains exactly ``s`` ones at uniformly random rows.  Each input sample is
therefore added to exactly ``s`` of the M partial sums, which maps one-to-one
onto a charge-sharing network with ``s`` sampling capacitors.

Dense Gaussian and Bernoulli (+-1) matrices are provided as the classical
comparators (used by the digital-CS baselines of refs [2], [12] and by the
reconstruction diagnostics tests).

All constructions are deterministic given a seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.rng import make_rng
from repro.util.validation import check_positive_int


@dataclass(frozen=True)
class SensingMatrix:
    """A sensing matrix ``Phi`` (M x N) together with its provenance.

    Attributes
    ----------
    phi:
        The M x N matrix as float64.  For s-SRBM the entries are {0, 1}.
    kind:
        Construction name (``"srbm"``, ``"gaussian"``, ``"bernoulli"``).
    sparsity:
        Ones per column for s-SRBM; ``None`` for dense constructions.
    seed:
        Seed used for generation (reproducibility record).
    """

    phi: np.ndarray
    kind: str
    sparsity: int | None
    seed: int | None

    def __post_init__(self) -> None:
        if self.phi.ndim != 2:
            raise ValueError(f"phi must be 2-D, got shape {self.phi.shape}")
        m, n = self.phi.shape
        if m >= n:
            raise ValueError(f"sensing matrix must be wide (M < N), got {m}x{n}")

    @property
    def m(self) -> int:
        """Number of measurements per frame."""
        return self.phi.shape[0]

    @property
    def n(self) -> int:
        """Frame length (input samples per frame)."""
        return self.phi.shape[1]

    @property
    def compression_ratio(self) -> float:
        """N / M (> 1)."""
        return self.n / self.m

    def measure(self, x: np.ndarray) -> np.ndarray:
        """Ideal digital measurement ``y = Phi @ x``.

        ``x`` may be a single frame (N,) or a batch (n_frames, N); the
        result has the matching shape with N replaced by M.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            return self.phi @ x
        if x.ndim == 2:
            return x @ self.phi.T
        raise ValueError(f"x must be 1-D or 2-D, got shape {x.shape}")

    def row_degrees(self) -> np.ndarray:
        """Number of nonzeros per row (accumulations per hold capacitor)."""
        return np.count_nonzero(self.phi, axis=1)

    def column_support(self) -> list[np.ndarray]:
        """For each column, the row indices of its nonzeros (routing table).

        This is exactly the shift-register content that drives the
        charge-sharing switches in the paper's Fig. 5 architecture.
        """
        return [np.flatnonzero(self.phi[:, j]) for j in range(self.n)]

    def mutual_coherence(self, basis: np.ndarray | None = None) -> float:
        """Mutual coherence of ``Phi`` (optionally of ``Phi @ basis``).

        The maximum absolute normalised inner product between distinct
        columns of the effective dictionary -- the standard cheap proxy for
        RIP quality.  Lower is better; random dense matrices approach
        ``sqrt(log N / M)``.
        """
        a = self.phi if basis is None else self.phi @ basis
        norms = np.linalg.norm(a, axis=0)
        norms = np.where(norms == 0, 1.0, norms)
        gram = (a / norms).T @ (a / norms)
        np.fill_diagonal(gram, 0.0)
        return float(np.max(np.abs(gram)))


def srbm(m: int, n: int, sparsity: int = 2, seed: int | None = None) -> SensingMatrix:
    """Generate an s-SRBM sensing matrix (Zhao et al. [9]).

    Every column receives exactly ``sparsity`` ones at distinct uniformly
    random rows.  This guarantees each input sample contributes to exactly
    ``s`` measurements, matching the s sampling capacitors of the paper's
    encoder.

    Parameters
    ----------
    m, n:
        Matrix dimensions (M measurements, N-sample frames), M < N.
    sparsity:
        Ones per column, 1 <= s <= M.
    seed:
        RNG seed; ``None`` uses the library default (still deterministic).
    """
    m = check_positive_int("m", m)
    n = check_positive_int("n", n)
    sparsity = check_positive_int("sparsity", sparsity)
    if sparsity > m:
        raise ValueError(f"sparsity ({sparsity}) cannot exceed m ({m})")
    if m >= n:
        raise ValueError(f"need m < n for compression, got m={m}, n={n}")
    rng = make_rng(seed)
    phi = np.zeros((m, n), dtype=np.float64)
    for j in range(n):
        rows = rng.choice(m, size=sparsity, replace=False)
        phi[rows, j] = 1.0
    matrix = SensingMatrix(phi=phi, kind="srbm", sparsity=sparsity, seed=seed)
    return matrix


def srbm_balanced(m: int, n: int, sparsity: int = 2, seed: int | None = None) -> SensingMatrix:
    """s-SRBM with (near-)balanced row degrees.

    Plain column-wise sampling leaves the row degrees binomially
    distributed; some hold capacitors then accumulate many more samples
    than others, which worsens the dynamic range of the charge-sharing
    weights.  This variant assigns ones by cycling through a shuffled list
    in which every row appears ``ceil(n*s/m)`` times, so row degrees differ
    by at most one -- a practical refinement the encoder benefits from.
    """
    m = check_positive_int("m", m)
    n = check_positive_int("n", n)
    sparsity = check_positive_int("sparsity", sparsity)
    if sparsity > m:
        raise ValueError(f"sparsity ({sparsity}) cannot exceed m ({m})")
    if m >= n:
        raise ValueError(f"need m < n for compression, got m={m}, n={n}")
    rng = make_rng(seed)
    # Random permutation of an exactly balanced row multiset, followed by a
    # collision-repair pass.  A purely random shuffle keeps the placement
    # incoherent with any fixed basis (essential for CS -- deterministic
    # "balanced" schedules degenerate into regular subsampling, whose
    # coherence with smooth dictionaries is catastrophic); the repair pass
    # only swaps entries until no column holds the same row twice.
    total = n * sparsity
    base, remainder = divmod(total, m)
    pool = np.repeat(np.arange(m), base)
    if remainder:
        pool = np.concatenate([pool, rng.choice(m, size=remainder, replace=False)])
    rng.shuffle(pool)

    def column_ok(column: int) -> bool:
        segment = pool[column * sparsity : (column + 1) * sparsity]
        return len(set(segment.tolist())) == sparsity

    # A kept swap leaves the other column valid, so a valid column never
    # turns invalid: only the columns that start with a duplicate can need
    # a repair (an earlier repair may already have fixed one).
    columns = np.sort(pool.reshape(n, sparsity), axis=1)
    for j in np.flatnonzero((columns[:, 1:] == columns[:, :-1]).any(axis=1)).tolist():
        guard = 0
        while not column_ok(j):
            guard += 1
            if guard > 10_000:  # pragma: no cover - statistically unreachable
                return srbm(m, n, sparsity=sparsity, seed=seed)
            # Find a duplicated entry in this column.
            rows = pool[j * sparsity : (j + 1) * sparsity]
            seen: set[int] = set()
            dup_offset = 0
            for offset, row in enumerate(rows.tolist()):
                if row in seen:
                    dup_offset = offset
                    break
                seen.add(row)
            # Swap it with a random pool position, accepting only swaps
            # that leave the other touched column duplicate-free (so
            # already-repaired columns stay valid).
            src = j * sparsity + dup_offset
            dst = int(rng.integers(0, total))
            other = dst // sparsity
            if other == j:
                continue
            pool[src], pool[dst] = pool[dst], pool[src]
            if not column_ok(other):
                pool[src], pool[dst] = pool[dst], pool[src]  # undo
    phi = np.zeros((m, n), dtype=np.float64)
    phi[pool, np.repeat(np.arange(n), sparsity)] = 1.0
    return SensingMatrix(phi=phi, kind="srbm-balanced", sparsity=sparsity, seed=seed)


def gaussian(m: int, n: int, seed: int | None = None) -> SensingMatrix:
    """Dense i.i.d. Gaussian sensing matrix, entries ~ N(0, 1/M).

    The classical RIP-optimal construction; used as the reference
    comparator for reconstruction-quality diagnostics.
    """
    m = check_positive_int("m", m)
    n = check_positive_int("n", n)
    if m >= n:
        raise ValueError(f"need m < n for compression, got m={m}, n={n}")
    rng = make_rng(seed)
    phi = rng.normal(0.0, 1.0 / np.sqrt(m), size=(m, n))
    return SensingMatrix(phi=phi, kind="gaussian", sparsity=None, seed=seed)


def bernoulli(m: int, n: int, seed: int | None = None) -> SensingMatrix:
    """Dense random +-1/sqrt(M) Bernoulli sensing matrix.

    Hardware-friendlier than Gaussian (single-bit weights) and the matrix
    used by the digital-CS architectures of Chen et al. [2].
    """
    m = check_positive_int("m", m)
    n = check_positive_int("n", n)
    if m >= n:
        raise ValueError(f"need m < n for compression, got m={m}, n={n}")
    rng = make_rng(seed)
    phi = rng.choice([-1.0, 1.0], size=(m, n)) / np.sqrt(m)
    return SensingMatrix(phi=phi, kind="bernoulli", sparsity=None, seed=seed)


def make_sensing_matrix(
    kind: str,
    m: int,
    n: int,
    sparsity: int = 2,
    seed: int | None = None,
    balanced: bool = True,
) -> SensingMatrix:
    """Factory dispatching on ``kind`` (``srbm``/``gaussian``/``bernoulli``).

    ``balanced=True`` (default) selects the row-balanced s-SRBM variant,
    which is what the encoder model uses throughout the experiments.
    """
    if kind == "srbm":
        if balanced:
            return srbm_balanced(m, n, sparsity=sparsity, seed=seed)
        return srbm(m, n, sparsity=sparsity, seed=seed)
    if kind == "gaussian":
        return gaussian(m, n, seed=seed)
    if kind == "bernoulli":
        return bernoulli(m, n, seed=seed)
    raise ValueError(f"unknown sensing matrix kind {kind!r}")
