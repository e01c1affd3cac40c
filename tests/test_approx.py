import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import (
    FIGURE_LEFT_TRUSSNESS,
    edge_list_text,
    figure_left_graph,
    gadget_graphs,
    marker_pass,
    traced_bytes,
)
from oracles import (
    brute_triangles,
    reference_estimate_trussness,
    reference_hypergraph_peel,
    reference_marker_test,
    reference_round_order,
    reference_suffix_support_profile,
    reference_threshold_rounds,
)
from test_cli import run_cli
from test_graph import small_graphs
from test_triangles import mask_rule_graphs
from test_truss import _hub_graph
from trusslab import approx, gadgets, sampling, triangles
from trusslab.approx import (
    _marker_hit,
    _round_order,
    approx_order_holds,
    approx_truss_order,
    estimate_trussness,
    hypergraph_degeneracy_order,
    marker_test,
    threshold_estimate,
    threshold_rounds,
)
from trusslab.gadgets import (
    add_spurious_cliques,
    augmented_sizes,
    bipartite_apex,
    blowup,
    complete_graph,
    disjoint_union,
    ladder_gadget,
    spurious_clique_budget,
)
from trusslab.graph import build_graph, degeneracy_order, forward_wedge_count
from trusslab.sampling import (
    HypergraphSample,
    SamplerConfig,
    _MarkerRounds,
    _skip_pass,
    gnp_random_graph,
    sample_wedges_fixed_p,
)
from trusslab.triangles import compute_supports, forward_rows, list_triangles
from trusslab.truss import is_exact_truss_order, truss_decomposition, trussness


def full_hypergraph(g) -> HypergraphSample:
    return HypergraphSample(g.m, list_triangles(g), 1.0, True, 0)


# ---------------------------------------------------- hypergraph peeling ----


def test_full_hypergraph_degeneracy_of_k4():
    order = hypergraph_degeneracy_order(full_hypergraph(complete_graph(4)))
    assert order.degeneracy == 2


def test_empty_sample_peels_by_id():
    sample = HypergraphSample(5, [], 1.0, True, 0)
    order = hypergraph_degeneracy_order(sample)
    assert order.order == [0, 1, 2, 3, 4]
    assert order.forward_degrees == [0] * 5


def test_full_hypergraph_degeneracy_matches_trussness_figure(figure_left):
    order = hypergraph_degeneracy_order(full_hypergraph(figure_left))
    assert order.degeneracy == trussness(figure_left) == FIGURE_LEFT_TRUSSNESS


@settings(max_examples=50)
@given(small_graphs(max_nodes=9))
def test_full_hypergraph_peel_equals_support_peel(g):
    """Peeling the complete triangle hypergraph must replay exact edge
    peeling step for step, including tie-breaks."""
    order = hypergraph_degeneracy_order(full_hypergraph(g))
    decomp, exact = truss_decomposition(g)
    assert order.order == exact.order
    assert order.forward_degrees == exact.forward_support
    assert order.degeneracy == decomp.trussness


def test_sampled_hypergraph_peel_matches_reference():
    """The peel of a sample's flat column pops what recounting every degree
    before each pop gives, on samples of several densities."""
    for seed in range(6):
        g = gnp_random_graph(12 + 2 * seed, 0.5, seed)
        info = degeneracy_order(g)
        for p in (0.1, 0.4, 1.0):
            sample = sample_wedges_fixed_p(g, info, p, seed)
            want = reference_hypergraph_peel(sample)
            order = hypergraph_degeneracy_order(sample)
            assert list(zip(order.order, order.forward_degrees)) == want, (seed, p)


# --------------------------------------------------------- approx orders ----


def test_fallback_order_is_exact():
    g = gnp_random_graph(9, 0.5, 21)
    order = approx_truss_order(g, SamplerConfig(epsilon=0.5, zeta=1e5, seed=0))
    assert order.fell_back_to_exact and order.realized_p == 1.0
    assert is_exact_truss_order(g, order.order)
    assert approx_order_holds(g, order.order, 0.0)


def test_fallback_order_is_the_fallback_sample_peel():
    """A fallen-back order comes from the exact peel; it equals the
    hypergraph peel of the listing of every triangle, which the fallback
    no longer builds."""
    graphs = [gnp_random_graph(25, p, seed) for p in (0.2, 0.4, 0.6) for seed in range(10)]
    graphs += [bipartite_apex(5), ladder_gadget(7), complete_graph(9)]
    for gi, g in enumerate(graphs):
        order = approx_truss_order(g, SamplerConfig(epsilon=0.5, seed=gi))
        assert order.fell_back_to_exact and order.realized_p == 1.0, gi
        want = hypergraph_degeneracy_order(full_hypergraph(g))
        assert (order.order, order.forward_degrees) == (want.order, want.forward_degrees), gi


def test_triangle_free_any_order_valid():
    g = build_graph([(0, 1), (1, 2), (2, 3), (3, 0)])
    order = approx_truss_order(g, SamplerConfig(epsilon=0.5, zeta=0.01, seed=3))
    assert sorted(order.order) == list(range(g.m))
    assert approx_order_holds(g, order.order, 0.5)


def test_sampled_orders_are_loosely_approximate():
    """Small zeta engages the random path; the strict (1+eps) order property
    needs the large analysis constant and fails often at this scale, but the
    degradation is bounded: a factor-4 check passes for every seed here.
    (Measured: at zeta=0.05, eps=0.5 the strict check fails ~75/100 seeds.)"""
    g = blowup(complete_graph(5), 2).materialize()
    strict = 0
    loose = 0
    random_path = 0
    for seed in range(100):
        order = approx_truss_order(g, SamplerConfig(epsilon=0.5, zeta=0.05, seed=seed))
        if order.fell_back_to_exact:
            assert approx_order_holds(g, order.order, 0.0)
            continue
        random_path += 1
        assert 0.0 < order.realized_p < 1.0
        strict += approx_order_holds(g, order.order, 0.5)
        loose += approx_order_holds(g, order.order, 3.0)
    assert random_path >= 90
    assert loose >= random_path - 5
    assert strict >= 1


def _reference_order_holds(g, order, epsilon) -> bool:
    """``approx_order_holds`` from the reference profile and a brute-force
    triangle count."""
    fwd, min_sup = reference_suffix_support_profile(g, order)
    density = Fraction(len(brute_triangles(g)), g.m)
    factor = 1 + Fraction(str(epsilon))
    return all(f <= density or f <= factor * s for f, s in zip(fwd, min_sup))


def test_approx_order_holds_takes_T_from_the_order():
    """K5's exact order with edge (1, 4) moved last: edge (2, 3) then has
    forward support 1 against a suffix minimum of 0, so only the T/m term
    can accept it.  T/m = 10/10 accepts; one more disjoint edge makes it
    10/11 and rejects.  Random orders agree with the brute-force check."""
    k5 = complete_graph(5)
    order = [0, 1, 2, 3, 4, 5, 7, 8, 9, 6]
    assert [k5.pair(e) for e in (7, 6)] == [(2, 3), (1, 4)]
    fwd, min_sup = reference_suffix_support_profile(k5, order)
    assert (fwd[6], min_sup[6]) == (1, 0)
    assert sum(fwd) == len(brute_triangles(k5)) == 10
    assert approx_order_holds(k5, order, 0.0)
    assert not all(f <= s for f, s in zip(fwd, min_sup))
    wider = disjoint_union(k5, build_graph([(0, 1)]))
    assert not approx_order_holds(wider, order + [10], 0.5)

    rng = random.Random(5)
    graphs = [k5, wider, complete_graph(6), bipartite_apex(3), gnp_random_graph(9, 0.6, 4)]
    decided = 0
    for g in graphs:
        for _ in range(40):
            order = rng.sample(range(g.m), g.m)
            for eps in (0.0, 0.5):
                want = _reference_order_holds(g, order, eps)
                assert approx_order_holds(g, order, eps) == want
                fwd, min_sup = reference_suffix_support_profile(g, order)
                decided += want and any(f > (1 + eps) * s for f, s in zip(fwd, min_sup))
    assert decided


# ------------------------------------------------------------ marker test ----


def test_marker_all_spurious_last_is_false():
    assert marker_test([0, 1, 2, 3], [False, False, True, True]) is False


def test_marker_spurious_first_is_true():
    assert marker_test([3, 0, 1, 2], [False, False, False, True]) is True


def test_marker_requires_matching_lengths():
    with pytest.raises(ValueError):
        marker_test([0, 1], [True])


def test_marker_without_spurious_edges_is_false():
    assert marker_test([0, 1], [False, False]) is False


def _marker_cases():
    """Random permutations and labels, with the empty order and orders with
    no spurious or no original edge among them."""
    rng = random.Random(5)
    cases = [([], []), ([1, 0, 2], [False] * 3), ([2, 0, 1], [True] * 3)]
    for _ in range(300):
        m = rng.randrange(1, 12)
        order = list(range(m))
        rng.shuffle(order)
        cases.append((order, [rng.random() < 0.3 for _ in range(m)]))
    return cases


def _deciding_position(order, spurious):
    """Index of the pop that decides the marker test, -1 if none is read:
    the first spurious edge, or the last original one if that comes first."""
    originals = [pos for pos, e in enumerate(order) if not spurious[e]]
    if not originals:
        return -1
    first = next((pos for pos, e in enumerate(order) if spurious[e]), len(order))
    return min(first, originals[-1])


def test_marker_iterator_matches_list_and_definition():
    for order, spurious in _marker_cases():
        want = reference_marker_test(order, spurious)
        assert marker_test(order, spurious) is want, (order, spurious)
        assert marker_test(iter(order), spurious) is want, (order, spurious)


def test_marker_never_reads_past_the_deciding_pop():
    for order, spurious in _marker_cases():
        stop = _deciding_position(order, spurious)

        def pops():
            yield from order[: stop + 1]
            raise AssertionError(f"read past position {stop} of {order}")

        assert marker_test(pops(), spurious) is reference_marker_test(order, spurious)


@pytest.mark.parametrize("kind", [list, tuple, dict.fromkeys, lambda order: range(len(order))],
                         ids=["list", "tuple", "dict", "range"])
def test_marker_length_check_covers_every_sized_order(kind):
    for order in ([0, 1], [1, 0, 2]):
        with pytest.raises(ValueError):
            marker_test(kind(order), [True])


def _working(g):
    return disjoint_union(blowup(g, 6).materialize(), complete_graph(3))


def test_working_graph_is_one_build_of_the_materialised_union(monkeypatch):
    """The working graph equals the union with the materialised 6-fold
    blow-up in n, m and every edge; one ``build_graph`` call makes it (the
    other builds K3), and its build peaks 0.3 bytes per edge above the
    ~111 it keeps, where building the blow-up first peaked ~111 above."""
    g = gnp_random_graph(120, 0.1, 1)
    n_w, m_w = 6 * g.n + 3, 36 * g.m + 3
    want = _working(g)
    built = []

    def spy(*args, **kwargs):
        built.append(build_graph(*args, **kwargs))
        return built[-1]

    with monkeypatch.context() as patch:
        patch.setattr(gadgets, "build_graph", spy)
        got = approx._working_graph(g, n_w, m_w)
    assert (got.n, got.m, list(got.edges())) == (want.n, want.m, list(want.edges()))
    assert (n_w, m_w) == (got.n, got.m) and m_w > 20_000
    assert [h.m for h in built] == [3, m_w] and built[1] is got
    got, kept, peak = traced_bytes(lambda: approx._working_graph(g, n_w, m_w))
    assert peak - kept < 16 * m_w


def test_round_order_is_the_round_on_the_materialised_graph():
    """A sampled round's outcome and fallback flag equal those of the round
    run on its materialised augmented graph."""
    working = _working(gnp_random_graph(7, 0.6, 3))
    rounds = _MarkerRounds(working)
    kinds = Counter()
    for x in range(1, 20):
        for seed in range(3):
            hit, fell_back = _round_order(rounds, x, 0.5 / 6, 0.001, seed)
            augmented = add_spurious_cliques(working, x)
            order, ref_fell_back = reference_round_order(augmented.graph, 0.5 / 6, 0.001, seed)
            assert fell_back == ref_fell_back, (x, seed)
            if fell_back:
                assert hit is None
                kinds["fell back"] += 1
                continue
            assert hit == reference_marker_test(order, augmented.is_spurious), (x, seed)
            kinds[hit] += 1
    assert set(kinds) == {True, False, "fell back"}


def test_marker_hit_is_the_core_test_of_the_kept_column():
    """On marker passes of seeded rounds, the worklist test hits exactly
    when the peel of the kept column has a degeneracy above k*, the least
    marker-edge degree: over empty columns, k* = 0, working parts that
    peel away entirely and ones that keep a core."""
    cases = Counter()
    for gi, g in enumerate([_working(gnp_random_graph(7, 0.6, 3)), _working(complete_graph(4)),
                            complete_graph(9)]):
        rounds = _MarkerRounds(g)
        for x in (1, 2, 4, 7):
            for p in (0.001, 0.05, 0.3, 0.8):
                for seed in range(3):
                    kept, marks = marker_pass(rounds, x, p, random.Random(seed))
                    least = min(marks)
                    peel = hypergraph_degeneracy_order(HypergraphSample(g.m, kept, p, False, 0))
                    want = peel.degeneracy > least
                    assert _marker_hit(g.m, kept, marks) is want, (gi, x, p, seed)
                    if not kept:
                        cases["empty"] += 1
                    elif not least:
                        cases["k* = 0"] += 1
                    else:
                        cases["core" if want else "peels away"] += 1
    assert set(cases) == {"empty", "k* = 0", "core", "peels away"}, cases


def test_marker_hit_counting_bound_implies_the_core_hit():
    """K > k*·m kept hyperedges on m vertices force a peel degeneracy above
    k*, the least marker-edge degree, so the count alone is a hit: on marker
    passes of seeded rounds and on seeded random columns, every case the
    bound decides has a non-empty (k*+1)-core by a full peel, with k* = 0
    and above, and ``_marker_hit`` agrees with that peel on every case."""
    cases = []
    for g in (_working(complete_graph(4)), _working(gnp_random_graph(7, 0.6, 3)),
              complete_graph(9)):
        rounds = _MarkerRounds(g)
        for x, p, seed in itertools.product((1, 2, 4), (0.05, 0.5, 0.9), range(3)):
            kept, marks = marker_pass(rounds, x, p, random.Random(seed))
            cases.append((g.m, kept, marks))
    for seed in range(60):
        rng = random.Random(seed)
        m = rng.randrange(3, 12)
        kept = [tuple(sorted(rng.sample(range(m), 3))) for _ in range(rng.randrange(4 * m))]
        cases.append((m, kept, [rng.randrange(4) for _ in range(3)]))
    decided = Counter()
    for i, (m, kept, marks) in enumerate(cases):
        least = min(marks)
        peel = hypergraph_degeneracy_order(HypergraphSample(m, kept, 1.0, False, 0))
        want = peel.degeneracy > least
        assert _marker_hit(m, kept, marks) is want, i
        if len(kept) > least * m:
            assert want, i
            decided[least > 0] += 1
        else:
            decided["worklist", want] += 1
    assert set(decided) == {False, True, ("worklist", True), ("worklist", False)}, decided


def test_marker_on_exact_order_of_k6_with_small_x():
    g = complete_graph(6)  # trussness 4
    augmented = add_spurious_cliques(g, 1)
    _, order = truss_decomposition(augmented.graph)
    assert marker_test(order.order, augmented.is_spurious) is True


def test_marker_on_exact_order_with_large_x():
    g = complete_graph(3)  # trussness 1
    augmented = add_spurious_cliques(g, 3)
    _, order = truss_decomposition(augmented.graph)
    assert marker_test(order.order, augmented.is_spurious) is False


def test_marker_hit_is_the_marker_test_of_the_whole_peel():
    """The core test on k* (the least sampled marker-edge degree) gives the
    marker test on the full peel of the materialised sample, for hits and
    misses, with k* both 0 and above."""
    outcomes = Counter()
    graphs = [_working(complete_graph(4)), _working(bipartite_apex(2)),
              _working(gnp_random_graph(6, 0.6, 1)), complete_graph(8)]
    for gi, g in enumerate(graphs):
        for x in (1, 2, 3, 5, 8, 11):
            augmented = add_spurious_cliques(g, x)
            aug, spurious = augmented.graph, augmented.is_spurious
            info = degeneracy_order(aug)
            rows = list(forward_rows(aug, info.order, info.positions))
            for p in (0.002, 0.05, 0.2, 0.5, 0.9):
                for seed in range(3):
                    full = _skip_pass(aug, rows, p, random.Random(seed))
                    whole = HypergraphSample(aug.m, full, p, False, seed)
                    want = marker_test(hypergraph_degeneracy_order(whole).order, spurious)
                    kept = [h for h in full if not spurious[h[0]]]
                    degree = Counter(e - g.m for h in full if spurious[h[0]] for e in h)
                    marks = [degree[i] for i in range(aug.m - g.m)]
                    assert _marker_hit(g.m, kept, marks) is want, (gi, x, p, seed)
                    outcomes[want, min(marks) > 0] += 1
    assert set(outcomes) == {(True, False), (True, True), (False, False), (False, True)}


# --------------------------------------------------------------- estimate ----


def test_estimate_rejects_bad_epsilon():
    g = complete_graph(3)
    for eps in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            estimate_trussness(g, eps)
    with pytest.raises(ValueError):
        estimate_trussness(g, 0.5, zeta=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_zeta_and_threshold_epsilon_are_rejected(bad):
    """A NaN zeta once passed a ``zeta <= 0`` check and enumerated every
    augmented graph's triangles; a NaN or infinite threshold epsilon reached
    ``Fraction`` and failed there."""
    g = complete_graph(4)
    with pytest.raises(ValueError, match="finite"):
        estimate_trussness(g, 0.5, zeta=bad)
    with pytest.raises(ValueError, match="finite"):
        threshold_rounds(g, bad)


def test_estimate_triangle_free_is_exact_zero():
    g = build_graph([(0, 1), (1, 2), (2, 3)])
    result = estimate_trussness(g, 0.5)
    assert result.estimate == 0
    assert result.exact


def test_estimate_k3_with_fallback_zeta():
    result = estimate_trussness(complete_graph(3), 0.3)
    assert result.estimate == 1
    assert result.exact
    assert result.all_rounds_fell_back
    # markers hit below the working trussness 6, miss at it
    assert result.trace == [(x, x < 6) for x in range(1, 7)]


def test_estimate_figure_left_several_epsilons(figure_left):
    for eps in (0.3, 0.5, 0.9):
        result = estimate_trussness(figure_left, eps, seed=1)
        assert result.estimate == FIGURE_LEFT_TRUSSNESS
        assert result.exact


def test_estimate_upper_bound_of_marker_value():
    # the recorded marker value never exceeds (1 + eps/6) * working trussness
    for k, eps in ((4, 0.3), (5, 0.9), (6, 0.9)):
        g = complete_graph(k)
        working_t = 6 * (k - 2)
        result = estimate_trussness(g, eps)
        hits = [x for x, hit in result.trace if hit]
        if hits:
            assert max(hits) <= (1 + Fraction(str(eps)) / 6) * working_t


def test_estimate_pseudocode_growth_variant():
    result = estimate_trussness(complete_graph(4), 0.3, pseudocode_growth=True)
    assert result.estimate == 2
    assert result.exact
    grown = [x for x, _ in result.trace]
    assert grown == sorted(set(grown))


def test_estimate_deterministic_given_seed():
    g = gnp_random_graph(9, 0.5, 33)
    a = estimate_trussness(g, 0.5, zeta=0.05, seed=9)
    b = estimate_trussness(g, 0.5, zeta=0.05, seed=9)
    assert a == b


def test_estimate_stochastic_rounds_still_return():
    # tiny zeta flips rounds onto the random path (at zeta=0.01 every round
    # still falls back here); the cap keeps the loop finite and the result
    # is still a ratio
    g = blowup(complete_graph(4), 2).materialize()
    result = estimate_trussness(g, 0.5, zeta=0.002, seed=2)
    assert not result.all_rounds_fell_back
    assert result.iterations == len(result.trace) >= 1
    assert result.estimate >= 0


# ------------------------------------------- closed-form marker rounds ----
#
# The estimator decides every round whose fallback is certain from facts of
# the input alone.  The tests below check those facts on materialised
# graphs and the whole estimator against the reference loop that builds and
# orders every round's augmented graph (``oracles``).  The reference is slow,
# so inputs stay at m <= 16.


def oracle_graphs():
    gnp = [gnp_random_graph(n, p, seed) for n, p, seed in
           ((6, 0.6, 1), (7, 0.5, 2), (8, 0.5, 3), (7, 0.7, 4), (6, 0.9, 6))]
    gadgets = [g for _, g in gadget_graphs() if g.m <= 16]
    return gnp + gadgets + [build_graph([(0, 1), (1, 2), (2, 3)])]


def test_working_graph_matches_closed_form():
    for g in oracle_graphs():
        T = compute_supports(g).triangle_count
        t = trussness(g)
        d = degeneracy_order(g).degeneracy
        working = disjoint_union(blowup(g, 6).materialize(), complete_graph(3))
        info = degeneracy_order(working)
        w_working = forward_wedge_count(working, info)
        t_working = max(6 * t, 1)
        d_working = max(6 * d, 2)
        assert (working.n, working.m) == (6 * g.n + 3, 36 * g.m + 3)
        assert compute_supports(working).triangle_count == 216 * T + 1 <= w_working
        assert info.degeneracy == d_working
        assert trussness(working) == t_working
        x_cap = min(2 * d_working + 2, math.ceil(2 * math.sqrt(working.m)))
        for x in sorted({1, 2, t_working - 1, t_working, t_working + 1, x_cap} - {0}):
            augmented = add_spurious_cliques(working, x)
            aug = augmented.graph
            count = spurious_clique_budget(working.m, x)
            size = x + 2
            assert augmented.spurious_clique_count == count
            assert aug.n == working.n + count * size
            assert aug.m == working.m + count * math.comb(size, 2)
            assert compute_supports(aug).triangle_count == (
                216 * T + 1 + count * math.comb(size, 3)
            )
            aug_info = degeneracy_order(aug)
            assert forward_wedge_count(aug, aug_info) == w_working + count * math.comb(size, 3)
            sizes = augmented_sizes(working.n, working.m, 216 * T + 1, x)
            assert sizes == (aug.n, aug.m, compute_supports(aug).triangle_count), x
            _, _, w_aug = augmented_sizes(working.n, working.m, w_working, x)
            assert w_aug == forward_wedge_count(aug, aug_info), x
            assert aug_info.degeneracy == max(d_working, x + 1)
            decomp, order = truss_decomposition(aug)
            assert decomp.trussness == max(t_working, x)
            assert marker_test(order.order, augmented.is_spurious) == (x < t_working)


def _gnm_with_trussness(n, m, t):
    """The first seeded G(n, m) with trussness t."""
    pairs = list(itertools.combinations(range(n), 2))
    for seed in itertools.count():
        g = build_graph(random.Random(seed).sample(pairs, m), node_count=n)
        if trussness(g) == t:
            return g


def test_estimate_matches_materialised_reference(monkeypatch):
    """Identical results on every (graph, zeta), rotating eps, seed and growth."""
    zeta_grid = (110.0, 4.0, 0.05, 0.005, 0.001)
    modes = list(itertools.product((0.3, 0.5, 0.9), (0, 1, 7), (False, True)))
    cases = [(g, zeta, *modes[i % len(modes)])
             for i, (g, zeta) in enumerate(itertools.product(oracle_graphs(), zeta_grid))]
    # Rounds that could sample but whose sampler falls back: every such round
    # of blowup(K4, 2), and on the first graph one at x = t(G).
    cases.append((blowup(complete_graph(4), 2).materialize(), 0.005, 0.5, 0, False))
    cases.append((oracle_graphs()[0], 0.001, 0.5, 0, False))
    # Like the bench's sampled cell: x grows to 45, past G's degeneracy, so
    # the marker block follows G's last row and holds most of the wedges.
    cases.append((_gnm_with_trussness(12, 40, 3), 0.001, 0.5, 0, False))
    kinds = Counter()
    round_order = approx._round_order

    def counting(*args):
        hit, fell_back = result = round_order(*args)
        kinds["fell back" if fell_back else hit] += 1
        return result

    monkeypatch.setattr(approx, "_round_order", counting)
    sampled = 0
    for g, zeta, eps, seed, growth in cases:
        kwargs = dict(zeta=zeta, seed=seed, pseudocode_growth=growth)
        got = estimate_trussness(g, eps, **kwargs)
        want = reference_estimate_trussness(g, eps, **kwargs)
        assert got == want, (list(g.edges()), eps, zeta, seed, growth)
        sampled += not want.all_rounds_fell_back
    assert sampled >= 10
    assert kinds[True] and kinds[False] and kinds["fell back"], kinds
    assert max(x for x, _ in got.trace) >= 45


def test_closed_form_estimates_order_no_graph(monkeypatch):
    """An estimate whose rounds are all closed-form computes no degeneracy
    order, the input's included; one that samples orders only its working
    graph, once."""
    ordered = []
    real = degeneracy_order

    def spy(g):
        ordered.append((g.n, g.m))
        return real(g)

    for module in (approx, sampling, triangles):
        monkeypatch.setattr(module, "degeneracy_order", spy)
    graphs = [g for _, g in gadget_graphs()] + [gnp_random_graph(12, 0.5, 1)]
    sampled = 0
    for i, g in enumerate(graphs):
        del ordered[:]
        result = estimate_trussness(g, 0.5, seed=1)
        assert result.all_rounds_fell_back and ordered == [], i
        result = estimate_trussness(g, 0.5, zeta=0.001, seed=1)
        assert ordered in ([], [(6 * g.n + 3, 36 * g.m + 3)]), i
        assert ordered or result.all_rounds_fell_back, i
        sampled += not result.all_rounds_fell_back
    assert sampled >= len(graphs) // 2


def test_estimate_stops_where_the_input_order_would_stop_it():
    """Capping x at min(2*d(G)+2, ceil(2*sqrt(m_G))), with d(G) = max(6d, 2)
    from the input's degeneracy order, ends every run where the estimator's
    own cap does: each hit is followed by a round iff its next x is within
    that cap.  So traces and estimates are those of a run capped by it, over
    the gadgets and seeded G(n, p), growth on and off, eps 0.3 and 0.9, and
    zeta 110 and 0.001; the sweep includes runs stopped at the cap by the
    degeneracy term after sampling."""
    graphs = [g for _, g in gadget_graphs()] + [
        gnp_random_graph(n, p, seed) for n, p, seed in ((7, 0.6, 1), (9, 0.5, 2), (10, 0.7, 3))]
    stops = Counter()
    for i, g in enumerate(graphs):
        m_w = 36 * g.m + 3
        by_order = 2 * max(6 * degeneracy_order(g).degeneracy, 2) + 2
        cap = min(by_order, math.ceil(2 * math.sqrt(m_w)))
        for growth, eps, zeta in itertools.product((False, True), (0.3, 0.9), (110.0, 0.001)):
            result = estimate_trussness(g, eps, zeta=zeta, seed=1, pseudocode_growth=growth)
            rate = 1 + Fraction(str(eps)) / (1 if growth else 6)
            xs = [x for x, _ in result.trace]
            assert xs == sorted(set(xs)) and xs[0] == 1, (i, growth, eps, zeta)
            for at, (x, hit) in enumerate(result.trace):
                nxt = math.ceil(rate * x)
                if hit:
                    assert (at + 1 < len(xs)) == (nxt <= cap), (i, growth, eps, zeta, x)
                    if at + 1 < len(xs):
                        assert xs[at + 1] == nxt
                else:
                    assert at + 1 == len(xs)
            if result.trace[-1][1]:
                stops["degeneracy cap" if by_order == cap else "sqrt cap",
                      result.all_rounds_fell_back] += 1
    assert ("degeneracy cap", False) in stops, stops


def test_every_sampled_round_passes_through_skip_pass(monkeypatch):
    """Marker rounds sample with ``sampling._skip_pass``, the pass the bench
    counts: seeded zeta = 0.001 estimates call it at least once per round
    that does not fall back, and zeta = 110 estimates, whose rounds are all
    decided in closed form, never call it."""
    passes, rounds = [], []
    skip_pass, round_order = sampling._skip_pass, approx._round_order

    def counting_pass(*args):
        passes.append(args[2])
        return skip_pass(*args)

    def counting_round(*args):
        result = round_order(*args)
        rounds.append(not result[1])
        return result

    monkeypatch.setattr(sampling, "_skip_pass", counting_pass)
    monkeypatch.setattr(approx, "_round_order", counting_round)
    for g in (complete_graph(4), gnp_random_graph(8, 0.5, 2)):
        for seed in range(3):
            del passes[:], rounds[:]
            estimate_trussness(g, 0.5, zeta=0.001, seed=seed)
            assert sum(rounds) >= 10 and len(passes) >= sum(rounds), (seed, rounds)
            del passes[:], rounds[:]
            estimate_trussness(g, 0.5, zeta=110.0, seed=seed)
            assert passes == [] and rounds == []


def test_cli_output_matches_materialised_reference(tmp_path, capsys, monkeypatch):
    graphs = {"k4": complete_graph(4), "gnp": gnp_random_graph(7, 0.5, 2),
              "apex": bipartite_apex(3)}
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    paths = []
    for name, g in graphs.items():
        path = corpus / f"{name}.edges"
        path.write_text(edge_list_text(g))
        paths.append(str(path))
    runs = [["truss", "approx", "--epsilon", "0.5", "--zeta", zeta, "--seed", "3", path]
            for zeta in ("110", "0.001") for path in paths]
    runs.append(["truss", "approx", "--epsilon", "0.9", "--zeta", "0.005",
                 "--pseudocode-growth", paths[1]])
    runs.append(["bench", "--corpus", str(corpus), "--epsilons", "0.3,0.9",
                 "--zetas", "110,0.005", "--seeds", "0:2", "--no-timing"])
    fast = [run_cli(capsys, *argv) for argv in runs]
    monkeypatch.setattr("trusslab.cli.estimate_trussness", reference_estimate_trussness)
    slow = [run_cli(capsys, *argv) for argv in runs]
    assert [out for _, out, _ in fast] == [out for _, out, _ in slow]
    assert all(code == 0 for code, _, _ in fast + slow)
    assert any("fallback-only false" in out for _, out, _ in fast)


# -------------------------------------------------------------- threshold ----


def test_threshold_triangle_free_is_zero():
    g = build_graph([(0, 1), (1, 2)])
    assert threshold_estimate(g, 0.1) == 0


def test_threshold_k5_first_round_density_one():
    rounds = threshold_rounds(complete_graph(5), 0.1)
    assert rounds[0].edges == 10
    assert rounds[0].triangles == 10
    assert rounds[0].density == 1


def test_threshold_sandwich_named_graphs(figure_right):
    for g in (complete_graph(5), figure_right, figure_left_graph()):
        t = trussness(g)
        for eps in (0.1, 1.0):
            est = threshold_estimate(g, eps)
            assert est <= t <= (3 + Fraction(str(eps))) * est or (t == 0 and est == 0)


def test_threshold_figure_right_density(figure_right):
    rounds = threshold_rounds(figure_right, 0.1)
    assert rounds[0].density == Fraction(16, 24)


def test_threshold_rejects_nonpositive_epsilon():
    with pytest.raises(ValueError):
        threshold_estimate(complete_graph(3), 0.0)


def test_threshold_shrink_rate():
    for g in (complete_graph(6), bipartite_apex(4), gnp_random_graph(10, 0.6, 12)):
        rounds = threshold_rounds(g, 0.1)
        shrink = Fraction(3, 1) / (3 + Fraction("0.1"))
        for before, after in zip(rounds, rounds[1:]):
            assert after.edges <= shrink * before.edges


def test_threshold_rounds_match_reference():
    """Against the loop that rebuilds the survivor graph and recounts every
    support by the forward-wedge walk each round; the first rounds of the
    rule graphs count on both sides of the mask rule."""
    graphs = mask_rule_graphs(8)
    graphs += [gnp_random_graph(40, p, 50 + i) for i, p in enumerate((0.1, 0.5, 0.9))]
    graphs += [_hub_graph(30 + 10 * i, 0.15, 60 + i) for i in range(3)]
    graphs += [
        complete_graph(7),
        blowup(complete_graph(4), 2).materialize(),
        build_graph([(2, 5), (5, 9), (2, 9), (9, 12), (5, 12), (0, 12)], node_count=20),
        build_graph([]),
    ]
    for i, g in enumerate(graphs):
        for eps in (1e-3, 0.1, 2, 50):
            assert threshold_rounds(g, eps) == reference_threshold_rounds(g, eps), (i, eps)


def test_threshold_rounds_count_through_compute_supports(monkeypatch):
    """Each round is one ``compute_supports`` call on that round's graph."""
    counted = []

    def counting(g):
        counted.append(g.m)
        return compute_supports(g)

    g = gnp_random_graph(30, 0.5, 9)
    want = reference_threshold_rounds(g, 0.1)
    assert len(want) > 1
    monkeypatch.setattr(approx, "compute_supports", counting)
    assert threshold_rounds(g, 0.1) == want
    assert counted == [r.edges for r in want]


def test_threshold_rounds_build_on_the_survivors_own_nodes(monkeypatch):
    """Later rounds run on the survivors' endpoints alone, renumbered
    densely, with the reference's m, T and density: a K6 on scattered ids
    among 120 nodes survives round 1 of a path-heavy graph as a 6-node
    graph."""
    clique = [3, 17, 40, 41, 90, 99]
    path = [(u, u + 1) for u in range(42, 89)] + [(100, 119), (0, 2)]
    g = build_graph([*itertools.combinations(clique, 2), *path], node_count=120)
    nodes = []
    monkeypatch.setattr(approx, "compute_supports", lambda h: nodes.append(h.n) or
                        compute_supports(h))
    assert threshold_rounds(g, 0.1) == reference_threshold_rounds(g, 0.1)
    assert nodes == [120, 6]


def test_threshold_rounds_copy_no_neighbor_map():
    """Rounds that count on the current graph's maps and build the next
    graph from the survivors peak at ~41 bytes per edge on G(4000, 0.0025);
    per-node set copies and a list of all pairs peaked at ~156
    (tracemalloc)."""
    g = gnp_random_graph(4000, 0.0025, 3)
    _, _, peak = traced_bytes(lambda: threshold_rounds(g, 0.1))
    assert peak < 80 * g.m


@settings(max_examples=60)
@given(small_graphs(max_nodes=9))
def test_threshold_sandwich_property(g):
    t = trussness(g)
    est = threshold_estimate(g, 0.5)
    assert est <= t
    assert t <= (3 + Fraction("0.5")) * est or t == 0
