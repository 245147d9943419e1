"""Graph substrate: dynamic directed graphs, generators, IO and statistics.

This subpackage provides everything the path-enumeration core needs from a
graph library, implemented from scratch:

- :class:`repro.graph.digraph.DynamicDiGraph` — the dynamic directed graph
  with O(1) expected edge insertion/deletion and in/out adjacency views;
- :mod:`repro.graph.generators` — seeded synthetic graph generators;
- :mod:`repro.graph.io` — edge-list readers/writers;
- :mod:`repro.graph.stats` — degree and diameter statistics (Table I);
- :mod:`repro.graph.datasets` — the registry of scaled analogues of the
  paper's fourteen evaluation datasets;
- :mod:`repro.graph.interning` — the dense-int vertex id space backing
  the flat-array hot paths.
"""

from repro.graph.digraph import DynamicDiGraph, EdgeUpdate
from repro.graph.interning import VertexInterner

__all__ = ["DynamicDiGraph", "EdgeUpdate", "VertexInterner"]
