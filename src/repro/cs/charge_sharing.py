"""Passive charge-sharing CS encoder model (paper Section III, Eq. 1).

The encoder of Fig. 5 performs the CS matrix multiplication ``y = Phi x``
*passively*: each input sample is stored on a sampling capacitor
``C_sample`` and then charge-shared onto one hold capacitor ``C_hold`` per
nonzero of its s-SRBM column.  Charge sharing between ``C1`` (sample) and
``C2`` (hold) leaves both at ``(C1 V1 + C2 V2) / (C1 + C2)``, so a hold
capacitor that accumulates samples ``V_{j1}, ..., V_{jK}`` (in time order)
ends at

    V_sum = sum_k  V_{jk} * a * b^(K-k),   a = C1/(C1+C2), b = C2/(C1+C2)

which is paper Eq. (1).  The implemented measurement is therefore not the
binary ``Phi x`` but ``Phi_eff x`` with exponentially-graded weights; the
decay per extra share is ``b``, set by the capacitor ratio.  The
reconstructor must use ``Phi_eff`` -- it is known at design time because
``Phi`` and the capacitor ratio are known.

Analog non-idealities modelled here:

* **kT/C noise** -- every share redistributes charge through a switch,
  sampling ``kT/(C1+C2)`` of noise power onto the hold node (plus the
  initial ``kT/C1`` sample noise on the sampling capacitor).
* **Capacitor mismatch** -- each physical capacitor carries a static
  relative error drawn from the Pelgrom sigma of its size; the *true*
  sharing ratios then differ from the nominal ones the reconstructor
  assumes (a systematic, not random-per-sample, error).
* **Leakage droop** -- hold capacitors lose ``I_leak / C_hold`` volts per
  second between their last accumulation and readout.

Everything is vectorised across frames and hold capacitors: one encode
draws all of its noise in a single call, and the accumulation loops over
share rank -- step k applies the k-th share of every hold capacitor at
once -- so B frames cost as many numpy steps as the largest row degree
of ``Phi`` (11 at M = 75, N_phi = 384, s = 2), not one per column.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cs.matrices import SensingMatrix
from repro.kernels.numpy_backend import encoder_multiply
from repro.util.constants import KT_ROOM
from repro.util.rng import make_rng
from repro.util.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class ChargeSharingConfig:
    """Electrical configuration of the charge-sharing encoder.

    Attributes
    ----------
    c_sample:
        Sampling capacitance ``C1`` in farads.
    c_hold:
        Hold capacitance ``C2`` in farads.
    kt:
        Thermal energy in joules (0 disables kT/C noise).
    mismatch_sigma_sample / mismatch_sigma_hold:
        Relative sigma of the static capacitor errors.  0 disables mismatch.
    i_leak:
        Leakage current per hold node in amperes (0 disables droop).
    f_sample:
        Input sample rate in Hz; needed only for the leakage-droop timing.
    """

    c_sample: float
    c_hold: float
    kt: float = KT_ROOM
    mismatch_sigma_sample: float = 0.0
    mismatch_sigma_hold: float = 0.0
    i_leak: float = 0.0
    f_sample: float = 537.6

    def __post_init__(self) -> None:
        check_positive("c_sample", self.c_sample)
        check_positive("c_hold", self.c_hold)
        check_non_negative("kt", self.kt)
        check_non_negative("mismatch_sigma_sample", self.mismatch_sigma_sample)
        check_non_negative("mismatch_sigma_hold", self.mismatch_sigma_hold)
        check_non_negative("i_leak", self.i_leak)
        check_positive("f_sample", self.f_sample)

    @property
    def share_gain(self) -> float:
        """Nominal per-sample gain ``a = C1 / (C1 + C2)``."""
        return self.c_sample / (self.c_sample + self.c_hold)

    @property
    def retention(self) -> float:
        """Nominal per-share retention ``b = C2 / (C1 + C2)``."""
        return self.c_hold / (self.c_sample + self.c_hold)

    @property
    def share_noise_rms(self) -> float:
        """RMS kT/C noise added to the hold node per share event, volts."""
        if self.kt == 0:
            return 0.0
        return float(np.sqrt(self.kt / (self.c_sample + self.c_hold)))

    @property
    def sample_noise_rms(self) -> float:
        """RMS kT/C noise of the initial sampling onto C_sample, volts."""
        if self.kt == 0:
            return 0.0
        return float(np.sqrt(self.kt / self.c_sample))


def effective_matrix(
    matrix: SensingMatrix,
    share_gain: float,
    retention: float,
) -> np.ndarray:
    """The weighted sensing matrix ``Phi_eff`` actually implemented.

    For every nonzero ``Phi[i, j]`` the effective weight is
    ``a * b^(later_i(j))`` where ``later_i(j)`` counts the nonzeros of row
    ``i`` at columns > j (samples shared after j attenuate earlier charge).
    Zeros stay zero.  Computed vectorised via a reversed cumulative count.
    """
    check_positive("share_gain", share_gain)
    check_positive("retention", retention)
    phi = matrix.phi
    nonzero = phi != 0
    # later_count[i, j] = number of nonzeros of row i strictly right of j.
    later_count = np.flip(np.cumsum(np.flip(nonzero, axis=1), axis=1), axis=1) - nonzero
    weights = share_gain * np.power(retention, later_count)
    return np.where(nonzero, weights * np.sign(phi), 0.0)


@dataclass
class EncoderPerturbation:
    """Static mismatch realisation of one fabricated encoder instance.

    ``sample_errors`` has one relative error per sampling capacitor
    (length s); ``hold_errors`` one per hold capacitor (length M).  Drawn
    once per chip, not per frame -- mismatch is a systematic error.
    """

    sample_errors: np.ndarray
    hold_errors: np.ndarray

    @classmethod
    def draw(
        cls,
        sparsity: int,
        m: int,
        sigma_sample: float,
        sigma_hold: float,
        rng: np.random.Generator,
    ) -> "EncoderPerturbation":
        """Draw a mismatch realisation for an encoder with s sample caps."""
        return cls(
            sample_errors=rng.normal(0.0, sigma_sample, size=sparsity)
            if sigma_sample > 0
            else np.zeros(sparsity),
            hold_errors=rng.normal(0.0, sigma_hold, size=m) if sigma_hold > 0 else np.zeros(m),
        )

    @classmethod
    def none(cls, sparsity: int, m: int) -> "EncoderPerturbation":
        """The ideal (mismatch-free) realisation."""
        return cls(sample_errors=np.zeros(sparsity), hold_errors=np.zeros(m))


@dataclass
class ChargeSharingEncoder:
    """Behavioural model of the passive charge-sharing CS encoder (Fig. 5).

    Parameters
    ----------
    matrix:
        The s-SRBM routing matrix ``Phi`` (M x N_phi).
    config:
        Electrical configuration (capacitor sizes, noise, mismatch, leak).
    seed:
        Seed for the mismatch realisation and the noise stream.

    Usage
    -----
    >>> from repro.cs.matrices import srbm_balanced
    >>> enc = ChargeSharingEncoder(srbm_balanced(8, 32, 2, seed=1),
    ...                            ChargeSharingConfig(1e-14, 8e-14, kt=0.0))
    >>> import numpy as np
    >>> y = enc.encode(np.ones(32))
    >>> y.shape
    (8,)

    ``phi_effective`` is the nominal weighted matrix the reconstructor
    should use; ``encode`` simulates the physical accumulation including
    the configured non-idealities.
    """

    matrix: SensingMatrix
    config: ChargeSharingConfig
    seed: int | None = None
    _perturbation: EncoderPerturbation = field(init=False, repr=False)
    _rng: np.random.Generator = field(init=False, repr=False)
    _routes: np.ndarray = field(init=False, repr=False)
    _phi_effective: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.matrix.sparsity is None:
            raise ValueError(
                "charge-sharing encoder requires an s-SRBM routing matrix "
                f"(got kind={self.matrix.kind!r})"
            )
        self._rng = make_rng(self.seed)
        self._perturbation = EncoderPerturbation.draw(
            self.matrix.sparsity,
            self.matrix.m,
            self.config.mismatch_sigma_sample,
            self.config.mismatch_sigma_hold,
            self._rng,
        )
        # The routing table: for column j, its s destination rows in
        # ascending order (which sampling capacitor serves which row).
        cols, rows = np.nonzero(self.matrix.phi.T)
        counts = np.bincount(cols, minlength=self.matrix.n)
        if np.any(counts != self.matrix.sparsity):
            j = int(np.flatnonzero(counts != self.matrix.sparsity)[0])
            raise ValueError(
                f"column {j} of the routing matrix holds {counts[j]} nonzeros, "
                f"not s={self.matrix.sparsity}"
            )
        self._routes = rows.reshape(self.matrix.n, self.matrix.sparsity)
        self._phi_effective = effective_matrix(
            self.matrix, self.config.share_gain, self.config.retention
        )
        self._phi_effective.flags.writeable = False

    # --- nominal algebra ----------------------------------------------------

    @property
    def phi_effective(self) -> np.ndarray:
        """Nominal effective sensing matrix (known to the reconstructor).

        Computed once per encoder and read-only, so every consumer shares
        the one array.
        """
        return self._phi_effective

    @property
    def perturbation(self) -> EncoderPerturbation:
        """The drawn static mismatch realisation of this encoder instance."""
        return self._perturbation

    def phi_true(self) -> np.ndarray:
        """Effective matrix including this instance's capacitor mismatch.

        Exposed for diagnostics (model-error norm studies); the simulation
        itself never uses this matrix directly -- ``encode`` walks the
        physical accumulation, which is equivalent but also carries noise
        and droop.
        """
        m, n = self.matrix.m, self.matrix.n
        c_hold = self.config.c_hold * (1.0 + self._perturbation.hold_errors)
        c_sample = self.config.c_sample * (1.0 + self._perturbation.sample_errors)
        phi_true = np.zeros((m, n))
        # weight of sample j on row i: a_ij * prod of b over later shares.
        for i in range(m):
            cols = np.flatnonzero(self.matrix.phi[i])
            weight = 1.0
            # Walk backwards: later shares attenuate earlier ones.
            for rank, j in enumerate(reversed(cols)):
                slot = int(np.flatnonzero(self._routes[j] == i)[0])
                cs = c_sample[slot % len(c_sample)]
                a = cs / (cs + c_hold[i])
                b = c_hold[i] / (cs + c_hold[i])
                phi_true[i, j] = a * weight
                weight *= b
        return phi_true

    # --- physical simulation --------------------------------------------------

    def reset_noise(self) -> None:
        """Restart the noise stream (deterministic replay of ``encode``)."""
        self._rng = make_rng(self.seed)
        # Skip the mismatch draws so the replayed noise matches the first run.
        EncoderPerturbation.draw(
            self.matrix.sparsity,
            self.matrix.m,
            self.config.mismatch_sigma_sample,
            self.config.mismatch_sigma_hold,
            self._rng,
        )

    def encode(self, frames: np.ndarray) -> np.ndarray:
        """Simulate the passive accumulation of one or more frames.

        Parameters
        ----------
        frames:
            Input samples, shape (N_phi,) or (n_frames, N_phi), in volts at
            the encoder input (i.e. after the LNA).

        Returns
        -------
        Measurements of shape (M,) or (n_frames, M): the hold-capacitor
        voltages at readout, including kT/C noise, mismatch and droop as
        configured.
        """
        frames = np.asarray(frames, dtype=np.float64)
        single = frames.ndim == 1
        if single:
            frames = frames[None, :]
        if frames.shape[1] != self.matrix.n:
            raise ValueError(
                f"frame length {frames.shape[1]} does not match N_phi={self.matrix.n}"
            )
        n_frames = frames.shape[0]
        cfg = self.config
        pert = self._perturbation

        c_hold = cfg.c_hold * (1.0 + pert.hold_errors)  # (m,)
        c_sample = cfg.c_sample * (1.0 + pert.sample_errors)  # (s,)

        # Pre-draw the noise so the RNG stream -- and therefore seeded
        # replay via ``reset_noise`` -- stays bit-identical however the
        # kernel below loops over the accumulation arithmetic.  One call
        # draws it in the per-column order (per column: the sample noise,
        # then the share noise) and scales it in place as ``0.0 + sigma *
        # z``, which is what ``normal(0.0, sigma)`` computes per value.
        sample_noise = cfg.sample_noise_rms
        s = self._routes.shape[1]
        sigmas = [sample_noise] if sample_noise > 0 else []
        if cfg.kt > 0:
            sigmas.append(1.0)
        draws = self._rng.standard_normal((self.matrix.n, len(sigmas), n_frames, s))
        for k, sigma in enumerate(sigmas):
            np.multiply(draws[:, k], sigma, out=draws[:, k])
            np.add(draws[:, k], 0.0, out=draws[:, k])
        sample_draws = draws[:, 0] if sample_noise > 0 else None
        share_draws = draws[:, -1] if cfg.kt > 0 else None

        v_hold, last_touch = encoder_multiply(
            frames, self._routes, c_sample, c_hold, cfg.kt, sample_draws, share_draws
        )
        if cfg.i_leak > 0:
            # Droop from last accumulation until frame readout at index N.
            hold_time = (self.matrix.n - last_touch) / cfg.f_sample
            droop = cfg.i_leak * hold_time / c_hold
            v_hold = v_hold - np.sign(v_hold) * np.minimum(np.abs(v_hold), droop)
        return v_hold[0] if single else v_hold

