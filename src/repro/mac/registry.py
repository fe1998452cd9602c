"""Protocol registry: build any of the six protocols by name.

The factory also constructs the appropriate physical layer: CHARISMA and
D-TDMA/VR run on the 6-mode adaptive modem, the other baselines on the
fixed-rate modem, all parameterised from the shared
:class:`~repro.config.SimulationParameters`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Type

import numpy as np

from repro.config import SimulationParameters
from repro.mac.base import MACProtocol, Modem
from repro.mac.drma import DRMAProtocol
from repro.mac.dtdma_fr import DTDMAFRProtocol
from repro.mac.dtdma_vr import DTDMAVRProtocol
from repro.mac.rama import RAMAProtocol
from repro.mac.rmav import RMAVProtocol
from repro.phy.abicm import AdaptiveModem
from repro.phy.fixed import FixedRateModem
from repro.phy.modes import ModeTable

__all__ = [
    "PROTOCOLS",
    "available_protocols",
    "build_modem",
    "create_protocol",
    "protocol_class",
]


def _protocol_classes() -> Dict[str, Type[MACProtocol]]:
    # CHARISMA lives in repro.core; imported lazily to avoid a cycle at
    # module import time (core imports the MAC substrate).
    from repro.core.charisma import CharismaProtocol

    classes = [
        CharismaProtocol,
        DTDMAVRProtocol,
        DTDMAFRProtocol,
        DRMAProtocol,
        RAMAProtocol,
        RMAVProtocol,
    ]
    return {cls.name: cls for cls in classes}


#: Mapping of registry key to protocol class (populated on first access).
PROTOCOLS: Dict[str, Type[MACProtocol]] = {}


def _registry() -> Dict[str, Type[MACProtocol]]:
    if not PROTOCOLS:
        PROTOCOLS.update(_protocol_classes())
    return PROTOCOLS


def available_protocols() -> List[str]:
    """Names of all implemented protocols (CHARISMA plus the five baselines)."""
    return sorted(_registry())


def protocol_class(name: str) -> Type[MACProtocol]:
    """Look up a protocol class by its registry name."""
    registry = _registry()
    key = name.lower()
    if key not in registry:
        raise KeyError(
            f"unknown protocol {name!r}; available: {', '.join(sorted(registry))}"
        )
    return registry[key]


def build_modem(
    name: str, params: SimulationParameters
) -> Modem:
    """Construct the physical layer the named protocol runs on."""
    cls = protocol_class(name)
    if cls.uses_adaptive_phy:
        return AdaptiveModem(
            ModeTable(
                throughputs=params.mode_throughputs,
                target_ber=params.target_ber,
                reference_throughput=params.reference_throughput,
            ),
            mean_snr_db=params.mean_snr_db,
            packet_size_bits=params.packet_size_bits,
        )
    return FixedRateModem(
        throughput=params.reference_throughput,
        target_ber=params.target_ber,
        mean_snr_db=params.mean_snr_db,
        packet_size_bits=params.packet_size_bits,
    )


def create_protocol(
    name: str,
    params: SimulationParameters,
    rng: np.random.Generator,
    use_request_queue: bool = False,
    contention_rng: Optional[np.random.Generator] = None,
    csi_rng: Optional[np.random.Generator] = None,
) -> MACProtocol:
    """Instantiate a protocol and the physical layer it runs on.

    ``contention_rng`` and ``csi_rng`` are fast RNG mode's child streams for
    contention and (CSI-scheduling protocols only) estimation noise; a
    protocol given neither keeps the parity draw order on ``rng``.
    """
    cls = protocol_class(name)
    kwargs: dict = {
        "use_request_queue": use_request_queue,
        "contention_rng": contention_rng,
    }
    if cls.uses_csi_scheduling:
        kwargs["csi_rng"] = csi_rng
    return cls(params, build_modem(name, params), rng, **kwargs)
