"""repro — Non-Tree Routing (McCoy & Robins, DATE 1994) reproduction library.

This package implements the paper's low-delay routing-graph algorithms (LDRG,
SLDRG, H1/H2/H3, ERT-based LDRG) together with every substrate they need:

* ``repro.geometry`` — pins, nets, Manhattan metric, random net generation.
* ``repro.graph``    — routing graphs, spanning trees, Iterated 1-Steiner.
* ``repro.circuit``  — a from-scratch linear circuit simulator (MNA, transient,
  moments) standing in for SPICE.
* ``repro.delay``    — interconnect technology parameters, Elmore delay for
  trees and for arbitrary RC graphs, transient ("SPICE") delay.
* ``repro.core``     — the paper's routing algorithms and the Section-5
  extensions (critical-sink, wire sizing, hybrid).
* ``repro.experiments`` — the harness that regenerates every table and figure
  of the paper's evaluation.

Quickstart::

    from repro import Net, Technology, ldrg

    net = Net.random(num_pins=10, seed=7)
    tech = Technology.cmos08()
    result = ldrg(net, tech)
    print(result.delay, result.cost, sorted(result.graph.edges()))
"""

from importlib import import_module
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.geometry import Net, Point
    from repro.graph import RoutingGraph, iterated_one_steiner, prim_mst
    from repro.delay import (
        DelayModel,
        Technology,
        elmore_delays,
        graph_elmore_delays,
        spice_delay,
        spice_delays,
    )
    from repro.core import (
        RoutingResult,
        csorg_ldrg,
        ert,
        ert_ldrg,
        h1,
        h2,
        h3,
        horg,
        ldrg,
        sldrg,
        wsorg,
    )

__version__ = "1.0.0"

#: Public name -> the subpackage defining it. Names resolve on first
#: access (PEP 562), so ``import repro`` — and with it every
#: ``python -m repro`` command — does not pay for numpy and scipy
#: before it needs them. ``repro serve`` relies on this to latch
#: SIGTERM early in start-up (see :mod:`repro.startup`).
_EXPORTS = {
    "DelayModel": "repro.delay",
    "Net": "repro.geometry",
    "Point": "repro.geometry",
    "RoutingGraph": "repro.graph",
    "RoutingResult": "repro.core",
    "Technology": "repro.delay",
    "csorg_ldrg": "repro.core",
    "elmore_delays": "repro.delay",
    "ert": "repro.core",
    "ert_ldrg": "repro.core",
    "graph_elmore_delays": "repro.delay",
    "h1": "repro.core",
    "h2": "repro.core",
    "h3": "repro.core",
    "horg": "repro.core",
    "iterated_one_steiner": "repro.graph",
    "ldrg": "repro.core",
    "prim_mst": "repro.graph",
    "sldrg": "repro.core",
    "spice_delay": "repro.delay",
    "spice_delays": "repro.delay",
    "wsorg": "repro.core",
}

__all__ = [
    "DelayModel",
    "Net",
    "Point",
    "RoutingGraph",
    "RoutingResult",
    "Technology",
    "csorg_ldrg",
    "elmore_delays",
    "ert",
    "ert_ldrg",
    "graph_elmore_delays",
    "h1",
    "h2",
    "h3",
    "horg",
    "iterated_one_steiner",
    "ldrg",
    "prim_mst",
    "sldrg",
    "spice_delay",
    "spice_delays",
    "wsorg",
]


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
