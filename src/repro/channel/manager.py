"""Vectorised per-user channel manager.

The simulation engine needs the composite fading amplitude of the mobile
devices it schedules once per 2.5 ms frame, for populations of up to ten
thousand users.  :class:`ChannelManager` keeps the whole population's state
and hands out one :class:`ChannelSnapshot` per frame, a read handle through
which a consumer reads only the users it grants or polls.  It evaluates the
channel in one of two ways:

* **eager** (the default, and the engine's ``rng_mode="parity"``) -- every
  user advances every frame, a block of frames at a time: one batched noise
  draw, then a loop over the block's frames whose every step updates the
  whole population at once;
* **lazy** (the engine's ``rng_mode="fast"``) -- a user advances only when a
  consumer reads it, jumping all the frames since its previous read in one
  step through the exact ``k``-step AR(1) marginal.  A frame nobody reads
  costs nothing, and the results are equal in law to the eager path.

The per-user statistics are identical to the scalar classes: complex AR(1)
fast fading with Clarke correlation and dB-domain Gauss--Markov shadowing.
Users fade independently, as the paper assumes for geographically scattered
devices.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.channel.doppler import DopplerModel
from repro.channel.fading import clarke_correlation

__all__ = ["ChannelManager", "ChannelSnapshot", "EagerSnapshot", "LazySnapshot"]


class ChannelSnapshot:
    """The channel of one frame, read per user.

    Consumers read the users they schedule with :meth:`read` (one user) or
    :meth:`gather` (many, in the given order) and never touch the rest of
    the population.  Ids are dense population indices (the engine validates
    ``terminal_id == index``); within a constellation shard they are
    beam-local and id errors carry ``(beam, local_id)``.

    Attributes
    ----------
    frame_index:
        Frame counter of the snapshot (the number of frames the channel had
        advanced to produce it).
    beam:
        Beam index when the snapshot belongs to one shard of a multi-beam
        constellation (``None`` for plain single-cell runs).
    n_users:
        Number of users covered by the snapshot.
    """

    __slots__ = ("frame_index", "beam", "n_users")

    frame_index: int
    beam: Optional[int]
    n_users: int

    def read(self, user_id: int, snr_db: bool = False) -> float:
        """One user's composite amplitude, or its SNR in dB with ``snr_db``.

        Out-of-range ids raise :class:`IndexError` instead of silently
        wrapping around like raw negative NumPy indexing would.
        """
        raise NotImplementedError

    def gather(self, user_ids, snr_db: bool = False) -> np.ndarray:
        """:meth:`read` over many users, as an array aligned with ``user_ids``.

        A user listed more than once reads the same value every time.
        """
        raise NotImplementedError

    def _id_error(self, user_id: int) -> IndexError:
        n = self.n_users
        if self.beam is None:
            return IndexError(
                f"user_id {user_id} outside the snapshot's dense 0.."
                f"{n - 1} population (terminal ids double as channel rows)"
            )
        return IndexError(
            f"(beam {self.beam}, local_id {user_id}): local id outside the "
            f"beam's dense 0..{n - 1} population — constellation snapshots "
            f"index by beam-local id, not global terminal id (terminal ids "
            f"double as channel rows within each beam)"
        )


class EagerSnapshot(ChannelSnapshot):
    """A snapshot holding the whole population's evaluated channel.

    Attributes
    ----------
    amplitude:
        Composite fading amplitude ``c_i`` per user (shape ``(n_users,)``).
    snr_db:
        Instantaneous received SNR in dB per user.
    """

    __slots__ = ("amplitude", "snr_db")

    def __init__(
        self,
        amplitude: np.ndarray,
        snr_db: np.ndarray,
        frame_index: int,
        beam: Optional[int] = None,
    ) -> None:
        self.amplitude = amplitude
        self.snr_db = snr_db
        self.frame_index = frame_index
        self.beam = beam
        self.n_users = int(amplitude.shape[0])

    def read(self, user_id: int, snr_db: bool = False) -> float:
        if not 0 <= user_id < self.n_users:
            raise self._id_error(user_id)
        return float((self.snr_db if snr_db else self.amplitude)[user_id])

    def gather(self, user_ids, snr_db: bool = False) -> np.ndarray:
        # NumPy indexing raises past the population but wraps negative ids,
        # so one comparison against the smallest id closes that gap.
        if len(user_ids) and min(user_ids) < 0:
            raise self._id_error(min(user_ids))
        try:
            return (self.snr_db if snr_db else self.amplitude)[user_ids]
        except IndexError:
            raise self._id_error(max(user_ids)) from None


class LazySnapshot(ChannelSnapshot):
    """A read handle on a lazily evaluated channel at one frame.

    Reading a user advances it to this frame (see
    :meth:`ChannelManager._amplitude_at`), so the handles of one channel
    must be read in non-decreasing frame order per user.  The interference
    penalty in force at read time applies.
    """

    __slots__ = ("_channel",)

    def __init__(self, channel: "ChannelManager", frame_index: int) -> None:
        self._channel = channel
        self.frame_index = frame_index
        self.beam = channel.beam
        self.n_users = channel.n_users

    def read(self, user_id: int, snr_db: bool = False) -> float:
        if not 0 <= user_id < self.n_users:
            raise self._id_error(user_id)
        channel = self._channel
        amplitude = channel._amplitude_at(user_id, self.frame_index)
        return channel._amplitude_db(amplitude) if snr_db else amplitude

    def gather(self, user_ids, snr_db: bool = False) -> np.ndarray:
        if isinstance(user_ids, np.ndarray):
            user_ids = user_ids.tolist()
        n = self.n_users
        frame = self.frame_index
        channel = self._channel
        amplitude_at = channel._amplitude_at
        values = []
        for user_id in user_ids:
            if not 0 <= user_id < n:
                raise self._id_error(user_id)
            values.append(amplitude_at(user_id, frame))
        if snr_db:
            to_db = channel._amplitude_db
            values = [to_db(amplitude) for amplitude in values]
        return np.array(values, dtype=float)


class ChannelManager:
    """Collection of independent per-user composite channels.

    Parameters
    ----------
    n_users:
        Number of mobile devices.
    doppler:
        Mobility model shared by the population, or a sequence with one model
        per user (for mixed-speed scenarios).
    frame_duration_s:
        Time advanced per :meth:`advance_frame` call.
    rng:
        Random generator used for all users (their draws are independent).
    shadow_std_db, shadow_mean_db, shadow_decorrelation_s:
        Log-normal shadowing parameters shared by all users.
    mean_snr_db:
        Average received SNR at unit composite amplitude.
    beam:
        Optional beam index when this manager serves one shard of a
        multi-beam constellation; carried into every snapshot so id errors
        report ``(beam, local_id)``.
    lazy:
        Evaluate a user's channel only when a snapshot read asks for it
        (see the module docstring).  Snapshots are then
        :class:`LazySnapshot` handles instead of :class:`EagerSnapshot`
        arrays.  Construction draws the same stationary initial states
        either way.
    """

    #: Rows of (real, imaginary[, shadow]) standard normals a lazy manager
    #: draws from ``rng`` at a time; its reads consume them in read order.
    NORMAL_POOL_ROWS = 256

    def __init__(
        self,
        n_users: int,
        doppler: DopplerModel | Sequence[DopplerModel],
        frame_duration_s: float = 0.0025,
        rng: Optional[np.random.Generator] = None,
        shadow_std_db: float = 6.0,
        shadow_mean_db: float = 0.0,
        shadow_decorrelation_s: float = 1.0,
        mean_snr_db: float = 20.0,
        beam: Optional[int] = None,
        lazy: bool = False,
    ) -> None:
        if n_users < 0:
            raise ValueError("n_users must be non-negative")
        if frame_duration_s <= 0:
            raise ValueError("frame_duration_s must be positive")
        if shadow_std_db < 0:
            raise ValueError("shadow_std_db must be non-negative")
        if shadow_decorrelation_s <= 0:
            raise ValueError("shadow_decorrelation_s must be positive")

        self._n = int(n_users)
        self._dt = float(frame_duration_s)
        # Seedless convenience default for standalone/unit-test use only;
        # engine-owned instances always inject a RandomStreams generator.
        self._rng = rng if rng is not None else np.random.default_rng()  # lint: allow[RNG001]
        self._mean_snr_db = float(mean_snr_db)
        self._beam = None if beam is None else int(beam)
        self._lazy = bool(lazy)
        # Co-channel interference folded in by a constellation's coupling
        # layer between macro blocks: an SINR penalty in dB, applied as a
        # linear gain on the composite amplitude so every consumer (PHY
        # error draws, CSI estimation, adaptive mode selection) sees a
        # consistently degraded channel.  Zero keeps the amplitude maths
        # untouched, preserving single-cell bit-identity.
        self._interference_db = 0.0
        self._interference_gain = 1.0
        self._shadow_mean_db = float(shadow_mean_db)
        self._shadow_std_db = float(shadow_std_db)
        self._shadow_tau = float(shadow_decorrelation_s)
        self._frame_index = 0

        # Per-user fast-fading lag-one correlation, computed once per distinct
        # mobility model, and the shadowing correlation.
        if isinstance(doppler, DopplerModel):
            dopplers = [doppler] * self._n
            self._rho_fast = np.full(
                self._n, clarke_correlation(doppler.doppler_hz, self._dt)
            )
        else:
            dopplers = list(doppler)
            if len(dopplers) != self._n:
                raise ValueError(
                    f"expected {self._n} Doppler models, got {len(dopplers)}"
                )
            rho_of = {
                model: clarke_correlation(model.doppler_hz, self._dt)
                for model in set(dopplers)
            }
            self._rho_fast = np.array([rho_of[d] for d in dopplers], dtype=float)
        self._dopplers = dopplers
        self._a_shadow = math.exp(-self._dt / self._shadow_tau)
        # Innovation scales are constants of the run; precomputing them keeps
        # the per-frame update to the draws plus one multiply-add per process.
        sigma = math.sqrt(0.5)
        self._innovation_scale = sigma * np.sqrt(1.0 - self._rho_fast**2)
        # ``advance_block`` steps the complex gains by ``rho`` cast to
        # complex once here (the per-frame update's implicit cast gives the
        # same values).
        self._rho_complex = self._rho_fast.astype(complex)
        self._shadow_shock_std = self._shadow_std_db * math.sqrt(
            1.0 - self._a_shadow * self._a_shadow
        )

        if self._lazy:
            # Plain Python floats: a lazy read touches one user, where list
            # indexing and ``math`` beat NumPy scalar arithmetic severalfold.
            self._rho_list: List[float] = self._rho_fast.tolist()
            self._lanes = 3 if self._shadow_std_db > 0.0 else 2
            self._normals: List[float] = []
            self._normal_position = 0
        self._set_stationary_state()

    # ------------------------------------------------------------------ API
    @property
    def n_users(self) -> int:
        """Number of users managed."""
        return self._n

    @property
    def frame_duration_s(self) -> float:
        """Time advanced per frame."""
        return self._dt

    @property
    def frame_index(self) -> int:
        """Number of frames advanced so far."""
        return self._frame_index

    @property
    def dopplers(self) -> Sequence[DopplerModel]:
        """Per-user mobility models."""
        return tuple(self._dopplers)

    @property
    def beam(self) -> Optional[int]:
        """Beam index when serving a constellation shard (else ``None``)."""
        return self._beam

    @property
    def interference_db(self) -> float:
        """Current co-channel interference penalty in dB (0 = none)."""
        return self._interference_db

    def set_interference_db(self, penalty_db: float) -> None:
        """Fold a co-channel interference penalty into the channel.

        The penalty is an SINR degradation in dB applied as a linear factor
        ``10^(-penalty/20)`` on the composite amplitude, so the derived
        ``snr_db`` drops by exactly ``penalty_db`` and every amplitude
        consumer (PHY error model, CSI estimation, adaptive mode selection)
        sees the same degraded channel.  A constellation's coupling layer
        calls this between macro blocks; eager snapshots produced afterwards
        carry the new penalty, and lazy reads made afterwards apply it.
        Zero restores the exact uncoupled amplitudes.
        """
        if not math.isfinite(penalty_db) or penalty_db < 0.0:
            raise ValueError("interference penalty must be finite and >= 0 dB")
        self._interference_db = float(penalty_db)
        self._interference_gain = 10.0 ** (-float(penalty_db) / 20.0)

    def snapshot(self) -> ChannelSnapshot:
        """Snapshot of the channel at the current frame."""
        if self._lazy:
            return LazySnapshot(self, self._frame_index)
        shadow_gain = 10.0 ** ((self._shadow_mean_db + self._shadow_dev) / 20.0)
        amplitude = np.abs(self._gain) * shadow_gain
        if self._interference_db != 0.0:
            amplitude = amplitude * self._interference_gain
        with np.errstate(divide="ignore"):
            amp_db = 20.0 * np.log10(amplitude)
        return EagerSnapshot(
            amplitude=amplitude,
            snr_db=self._mean_snr_db + amp_db,
            frame_index=self._frame_index,
            beam=self._beam,
        )

    def advance_frame(self) -> ChannelSnapshot:
        """Advance every user's channel by one frame and return a snapshot."""
        if self._n > 0 and not self._lazy:
            noise = self._rng.normal(size=self._n) + 1j * self._rng.normal(size=self._n)
            self._gain = self._rho_fast * self._gain + self._innovation_scale * noise

            if self._shadow_std_db > 0.0:
                shock = self._rng.normal(scale=self._shadow_shock_std, size=self._n)
                self._shadow_dev = self._a_shadow * self._shadow_dev + shock
        self._frame_index += 1
        return self.snapshot()

    def advance_block(self, n_frames: int) -> List[ChannelSnapshot]:
        """Advance ``n_frames`` frames at once and return their snapshots.

        A lazy manager only hands out the frames' read handles.  An eager
        one makes one batched noise draw, then steps the AR(1) recursions
        through the block's frames, each step over every user at once.  The
        returned snapshots — and the generator state left behind — are
        **bit identical** to calling :meth:`advance_frame` ``n_frames``
        times:

        * the noise block consumes the ``channel`` stream in exactly the
          per-frame order (real, imaginary, shadow slices per frame);
        * each step is the per-frame update's float expression
          (``innovation + rho * gain``, ``shock + a * dev``; addition
          commutes exactly), with every user's own ``rho``, so mixed-speed
          populations take the same path.
        """
        if n_frames < 0:
            raise ValueError("n_frames must be non-negative")
        if n_frames == 0:
            return []
        if self._lazy or self._n == 0:
            return [self.advance_frame() for _ in range(n_frames)]

        n = self._n
        with_shadow = self._shadow_std_db > 0.0
        lanes = 3 if with_shadow else 2
        noise = self._rng.standard_normal(lanes * n_frames * n).reshape(
            n_frames, lanes, n
        )
        # Each row starts as its frame's innovation and becomes its gain.
        gains = self._innovation_scale * (noise[:, 0, :] + 1j * noise[:, 1, :])
        rho = self._rho_complex
        gain = self._gain
        for row in gains:
            row += rho * gain
            gain = row
        self._gain = gain

        if with_shadow:
            deviations = self._shadow_shock_std * noise[:, 2, :]
            a = self._a_shadow
            dev = self._shadow_dev
            for row in deviations:
                row += a * dev
                dev = row
            self._shadow_dev = dev
            shadow_db = self._shadow_mean_db + deviations
        else:
            shadow_db = np.broadcast_to(
                self._shadow_mean_db + self._shadow_dev, (n_frames, n)
            )

        amplitude = np.abs(gains) * 10.0 ** (shadow_db / 20.0)
        if self._interference_db != 0.0:
            amplitude = amplitude * self._interference_gain
        with np.errstate(divide="ignore"):
            snr_db = self._mean_snr_db + 20.0 * np.log10(amplitude)
        snapshots: List[ChannelSnapshot] = []
        for offset in range(n_frames):
            self._frame_index += 1
            snapshots.append(
                EagerSnapshot(
                    amplitude=amplitude[offset],
                    snr_db=snr_db[offset],
                    frame_index=self._frame_index,
                    beam=self._beam,
                )
            )
        return snapshots

    def reset(self) -> None:
        """Redraw all per-user states from their stationary distributions."""
        self._set_stationary_state()
        self._frame_index = 0

    # ------------------------------------------------------------ lazy reads
    def _amplitude_at(self, user_id: int, frame: int) -> float:
        """Composite amplitude of one user at ``frame``, advancing it there.

        A user last advanced to frame ``s`` jumps ``k = frame - s`` frames
        in one step through the exact ``k``-step marginals of its AR(1)
        processes::

            g <- rho^k g + sqrt((1 - rho^2k) / 2) (z1 + i z2)
            d <- a^k d + sigma_s sqrt(1 - a^2k) z3

        so the value is equal in law to ``k`` single-frame updates.  The
        normals come from a pool refilled from the ``channel`` stream, so
        draws are consumed in read order.  Reading the same user again at
        the same frame draws nothing and returns the same value under the
        same interference penalty.
        """
        stamps = self._stamp
        k = frame - stamps[user_id]
        re = self._re[user_id]
        im = self._im[user_id]
        dev = self._dev[user_id]
        if k:
            if k < 0:
                raise ValueError(
                    f"user {user_id} was last read at frame {stamps[user_id]}; "
                    f"a lazy channel cannot be read back at frame {frame}"
                )
            lanes = self._lanes
            normals = self._normals
            position = self._normal_position
            if position + lanes > len(normals):
                normals = self._normals = self._rng.standard_normal(
                    lanes * self.NORMAL_POOL_ROWS
                ).tolist()
                position = 0
            self._normal_position = position + lanes
            rho_k = self._rho_list[user_id] ** k
            scale = math.sqrt(0.5 * (1.0 - rho_k * rho_k))
            re = self._re[user_id] = rho_k * re + scale * normals[position]
            im = self._im[user_id] = rho_k * im + scale * normals[position + 1]
            if lanes == 3:
                a_k = self._a_shadow ** k
                dev = self._dev[user_id] = a_k * dev + (
                    self._shadow_std_db
                    * math.sqrt(1.0 - a_k * a_k)
                    * normals[position + 2]
                )
            stamps[user_id] = frame
        return (
            math.hypot(re, im)
            * 10.0 ** ((self._shadow_mean_db + dev) / 20.0)
            * self._interference_gain
        )

    def _amplitude_db(self, amplitude: float) -> float:
        """``mean_snr_db + 20 log10(amplitude)``; ``-inf`` at zero amplitude."""
        if amplitude > 0.0:
            return self._mean_snr_db + 20.0 * math.log10(amplitude)
        return -math.inf

    # ------------------------------------------------------------ internals
    def _set_stationary_state(self) -> None:
        gain = self._draw_stationary_fast()
        shadow_dev = self._draw_stationary_shadow_dev()
        if self._lazy:
            self._re: List[float] = gain.real.tolist()
            self._im: List[float] = gain.imag.tolist()
            self._dev: List[float] = shadow_dev.tolist()
            self._stamp: List[int] = [0] * self._n
        else:
            # The shadowing state is stored as the dB *deviation* from the
            # mean, so the per-frame update is the pure AR(1) recursion
            # ``dev' = a * dev + shock`` — the float expression each step of
            # a block evaluates too, which keeps frame-by-frame and block
            # advancing bit-identical.
            self._gain = gain
            self._shadow_dev = shadow_dev

    def _draw_stationary_fast(self) -> np.ndarray:
        sigma = math.sqrt(0.5)
        return self._rng.normal(scale=sigma, size=self._n) + 1j * self._rng.normal(
            scale=sigma, size=self._n
        )

    def _draw_stationary_shadow_dev(self) -> np.ndarray:
        if self._shadow_std_db == 0.0:
            return np.zeros(self._n, dtype=float)
        return self._rng.normal(scale=self._shadow_std_db, size=self._n)
