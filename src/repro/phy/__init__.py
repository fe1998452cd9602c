"""Physical-layer substrate.

The paper's CHARISMA protocol sits on a *variable-throughput channel-adaptive*
physical layer (an adaptive bit-interleaved coded modulation, ABICM, scheme
with six transmission modes whose normalised throughput ranges from 1/2 to 5
information bits per symbol), operated in **constant-BER mode**: the
adaptation thresholds are chosen so that, whichever mode is active, the
instantaneous bit-error rate stays at (or below) the target level.  When the
channel is so poor that even the lowest mode cannot maintain the target BER
the link is in outage (Fig. 7a of the paper).

We reproduce that staircase abstractly rather than at the coded-bit level:

* :mod:`repro.phy.ber` — the classic exponential BER approximation for
  coded M-QAM used to translate SNR into error rates and back;
* :mod:`repro.phy.modes` / :mod:`repro.phy.thresholds` — the mode table and
  the constant-BER threshold design;
* :mod:`repro.phy.abicm` — the adaptive modem (mode selection, throughput and
  packets-per-slot as a function of CSI), i.e. Fig. 7b;
* :mod:`repro.phy.fixed` — the fixed-rate modem used by the non-adaptive
  baselines (D-TDMA/FR, RAMA, RMAV, DRMA);
* :mod:`repro.phy.error_model` — packet-level success/failure decisions;
* :mod:`repro.phy.csi` — pilot-symbol CSI estimation with noise and
  staleness, used by the CHARISMA CSI gathering/polling mechanism.
"""

from repro.phy.abicm import AdaptiveModem
from repro.phy.ber import (
    ber_approximation,
    required_snr_db,
    required_snr_linear,
    snr_db_to_linear,
    snr_linear_to_db,
)
from repro.phy.csi import CSIEstimator
from repro.phy.error_model import PacketErrorModel
from repro.phy.fixed import FixedRateModem
from repro.phy.modes import OUTAGE_MODE_INDEX, ModeTable, TransmissionMode
from repro.phy.thresholds import constant_ber_thresholds_db

__all__ = [
    "AdaptiveModem",
    "CSIEstimator",
    "FixedRateModem",
    "ModeTable",
    "OUTAGE_MODE_INDEX",
    "PacketErrorModel",
    "TransmissionMode",
    "ber_approximation",
    "constant_ber_thresholds_db",
    "required_snr_db",
    "required_snr_linear",
    "snr_db_to_linear",
    "snr_linear_to_db",
]
