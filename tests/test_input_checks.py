"""The input checks of the library's entry points, one table row each: the
ValueError text a bad argument raises, or the value an edge case returns."""

import math
import re

import pytest

from trusslab.approx import approx_order_holds
from trusslab.gadgets import add_spurious_cliques, bipartite_apex, complete_graph, ladder_gadget
from trusslab.graph import BucketQueue, build_graph
from trusslab.sampling import gnp_random_graph
from trusslab.truss import max_truss_subgraph, suffix_support_profile, truss_decomposition

K3 = complete_graph(3)
K4 = complete_graph(4)
K4_ORDER = truss_decomposition(K4)[1].order

CHECKS = {
    "complete_graph(0)": (lambda: complete_graph(0), "complete_graph needs at least one node"),
    "ladder_gadget(0)": (lambda: ladder_gadget(0), "ladder parameter must be >= 1"),
    "bipartite_apex(0)": (lambda: bipartite_apex(0), "side must be >= 1"),
    "add_spurious_cliques(K3, -1)": (lambda: add_spurious_cliques(K3, -1),
                                     "clique parameter x must be >= 0"),
    "gnp_random_graph(-1, 0.5)": (lambda: gnp_random_graph(-1, 0.5, 0), "n must be >= 0"),
    "gnp_random_graph(5, 1.5)": (lambda: gnp_random_graph(5, 1.5, 0),
                                 "p must be in [0, 1], got 1.5"),
    "max_truss_subgraph(K3, -1)": (lambda: max_truss_subgraph(K3, -1), "k must be >= 0"),
    "suffix_support_profile(K3, [0, 0, 1])": (lambda: suffix_support_profile(K3, [0, 0, 1]),
                                              "order is not a permutation of the edge ids"),
    "BucketQueue([-1])": (lambda: BucketQueue([-1]), "bucket keys must be non-negative"),
    # an exact truss order of K4 holds at every non-negative epsilon, 0 too
    "approx_order_holds(K4, 0)": (lambda: approx_order_holds(K4, K4_ORDER, 0.0), True),
    **{f"approx_order_holds(K4, {eps})": (
        lambda eps=eps: approx_order_holds(K4, K4_ORDER, eps),
        f"epsilon must be finite and non-negative, got {eps}")
       for eps in (-0.5, math.nan, math.inf)},
    # an empty order holds on a graph without edges
    "approx_order_holds(empty)": (lambda: approx_order_holds(build_graph([]), [], 0.5), True),
}


@pytest.mark.parametrize("case", CHECKS)
def test_input_check(case):
    call, expected = CHECKS[case]
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            call()
    else:
        assert call() is expected
