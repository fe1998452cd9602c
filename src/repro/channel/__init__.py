"""Wireless channel substrate.

This subpackage implements the channel model described in Section 4.2 of the
paper: the link between each mobile device and the base station is the product
of a *short-term* Rayleigh fast-fading component (multipath, coherence time of
a few milliseconds, Doppler spread set by the mobile speed) and a *long-term*
log-normal shadowing component (terrain/obstacles, decorrelation time on the
order of one second).

Public classes
--------------
:class:`~repro.channel.doppler.DopplerModel`
    Converts mobile speed and carrier frequency into Doppler spread and
    coherence time.
:class:`~repro.channel.fading.RayleighFading`
    First-order Gauss--Markov (AR(1)) sampler of the complex fast-fading gain
    whose envelope is Rayleigh distributed.
:class:`~repro.channel.fading.JakesFading`
    Sum-of-sinusoids (Jakes/Clarke) trace generator used for the Fig. 5 style
    fading traces.
:class:`~repro.channel.shadowing.LogNormalShadowing`
    dB-domain Gauss--Markov shadowing process.
:class:`~repro.channel.composite.CompositeChannel`
    Product channel ``c(t) = c_l(t) * c_s(t)`` for a single user.
:class:`~repro.channel.manager.ChannelManager`
    Collection of independent per-user composite channels, the object the
    simulation engine advances once per TDMA frame; its per-frame
    :class:`~repro.channel.manager.ChannelSnapshot` handles are evaluated
    eagerly for the whole population or lazily per read user.
"""

from repro.channel.composite import CompositeChannel
from repro.channel.doppler import (
    DopplerModel,
    coherence_time,
    doppler_spread,
    speed_to_mps,
)
from repro.channel.fading import JakesFading, RayleighFading
from repro.channel.manager import ChannelManager, ChannelSnapshot
from repro.channel.shadowing import LogNormalShadowing

__all__ = [
    "ChannelManager",
    "ChannelSnapshot",
    "CompositeChannel",
    "DopplerModel",
    "JakesFading",
    "LogNormalShadowing",
    "RayleighFading",
    "coherence_time",
    "doppler_spread",
    "speed_to_mps",
]
