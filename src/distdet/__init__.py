"""Exact distance-matrix determinants for graphs whose blocks are at most bicyclic.

`__all__` is the public API that README's Library section documents. Every
other name stays importable from its own module.
"""

from .blocks import classify_graph
from .formulas import BlockTooLargeError, FormulaResult, det_cof_closed
from .graphs import BlockRequest, Graph, GraphError, attach_path, build_theta, distance_matrix, parse_edge_list, random_block_graph
from .linalg import DetCof
from .verify import VerifyReport, det_cof_oracle, verify_graph

__version__ = "0.1.0"

__all__ = [
    "BlockRequest",
    "BlockTooLargeError",
    "DetCof",
    "FormulaResult",
    "Graph",
    "GraphError",
    "VerifyReport",
    "attach_path",
    "build_theta",
    "classify_graph",
    "det_cof_closed",
    "det_cof_oracle",
    "distance_matrix",
    "parse_edge_list",
    "random_block_graph",
    "verify_graph",
]
