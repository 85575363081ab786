"""Energy-efficient aggregation routing over LEO mega-constellations.

Subsystems: geometry (Walker shells, visibility), channel (optical link
budgets and outage), topology (per-slot weighted digraphs), routing
(shortest paths, minimum spanning arborescence, tree algorithms), hierfl
(hierarchical federated averaging on synthetic tasks), sim (multi-round
scenarios) and cli (command-line front end).
"""
__version__ = "0.1.0"
__all__ = ["__version__"]
