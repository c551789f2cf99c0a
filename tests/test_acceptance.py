"""Acceptance suite: the ten contract criteria, one test each.

Every test ends by printing a single PASS line (pytest reports the FAIL side);
all comparisons are exact integer or rational equality, no tolerances.
"""

import random
import statistics
import time

from distdet.blocks import biconnected_components, classify_block
from distdet.formulas import (
    block_detcof,
    compose_ghh,
    cycle_detcof,
    det_cof_closed,
    theta_detcof,
    theta_path_det,
    theta_prime_det,
    unicyclic_det,
)
from distdet.graphs import (
    BlockRequest,
    attach_path,
    build_theta,
    cycle_graph,
    distance_matrix,
    labeled_theta,
    labeled_theta_shifted,
    random_block_graph,
    triangle_chain,
)
from distdet.linalg import bareiss_det
from distdet.verify import (
    congruence_check_theta,
    congruence_check_theta_prime,
    cycle_inverse_identity,
    det_cof_oracle,
    fuzz_campaign,
    scalar_identity_checks,
)
from reference import cof_sum, cof_sum_minors, det_cofactor_expansion


def test_criterion_01_cycles():
    for n in range(3, 31):
        assert det_cof_oracle(cycle_graph(n)) == cycle_detcof(n), f"cycle C_{n}"
    print("criterion 01 PASS: cycles n=3..30 match the closed form exactly")


def test_criterion_02_random_trees():
    rng = random.Random(202)
    for _ in range(50):
        n = rng.randint(2, 12)
        g = random_block_graph(BlockRequest(edges=n - 1), rng.randrange(2**32))
        value = det_cof_oracle(g)
        assert value.det == (-1) ** (n - 1) * (n - 1) * 2 ** (n - 2)
        assert value.cof == (-2) ** (n - 1)
        assert det_cof_closed(g).detcof == value
    print("criterion 02 PASS: 50 seeded trees (n<=12) match the tree closed form")


def test_criterion_03_unicyclic_placements():
    rng = random.Random(303)
    for length in (3, 5, 7, 9, 4, 6, 8):
        for m in range(6):
            request = BlockRequest(edges=m, cycles=(length,))
            for _ in range(20):
                g = random_block_graph(request, rng.randrange(2**32))
                assert det_cof_oracle(g).det == unicyclic_det(length, m), (length, m)
    print("criterion 03 PASS: unicyclic det independent of placement, zero for even cycles")


def test_criterion_04_theta_exhaustive():
    checked = 0
    for total in range(5, 21):
        for l in range(1, total):
            for p in range(max(l, 2), total):
                q = total - l - p
                if q < p:
                    continue
                assert det_cof_oracle(build_theta(l, p, q)) == theta_detcof(l, p, q), (l, p, q)
                checked += 1
    assert checked > 100
    print(f"criterion 04 PASS: all {checked} theta triples with l+p+q<=20 match the closed form")


def test_criterion_05_theta_prime_all_attachments():
    checked = 0
    for total in range(5, 15):
        for l in range(1, total):
            for p in range(max(l, 2), total):
                q = total - l - p
                if q < p:
                    continue
                theta = build_theta(l, p, q)
                base = det_cof_oracle(theta)
                expected = theta_prime_det(l, p, q)
                for v in range(theta.n):
                    prime_det = det_cof_oracle(attach_path(theta, v, 1)).det
                    assert prime_det == expected, (l, p, q, v)
                    assert base.cof == -2 * base.det - prime_det, (l, p, q, v)
                    checked += 1
    print(f"criterion 05 PASS: pendant det matches at all {checked} attachments, cof relation holds")


def test_criterion_06_theta_path_family():
    for p in (2, 4, 6):
        for q in (2, 4, 6):
            if q < p:
                continue
            for m in range(6):
                g = attach_path(build_theta(1, p, q), 0, m)
                assert det_cof_oracle(g).det == theta_path_det(p, q, m), (p, q, m)
    print("criterion 06 PASS: theta plus attached path matches the closed form for p,q in {2,4,6}, m<=5")


def test_criterion_07_proof_identities():
    for k in range(1, 13):
        assert cycle_inverse_identity(k), f"inverse k={k}"
        assert scalar_identity_checks(k), f"scalars k={k}"
    for k in range(2, 7):
        for s in range(2, 7):
            assert congruence_check_theta(k, s), (k, s)
            assert congruence_check_theta_prime(k, s), (k, s)
            dh = distance_matrix(labeled_theta(k, s))
            dg = distance_matrix(labeled_theta_shifted(k, s))
            assert bareiss_det(dh) == bareiss_det(dg) == -((k + s) ** 2)
    print("criterion 07 PASS: inverse and scalar identities (k<=12), congruences (k,s<=6)")


def test_criterion_08_fuzz_three_way_agreement():
    summary = fuzz_campaign(count=200, max_n=40, seed=808)
    assert summary.all_passed, summary.failed_indices
    sizes = [r.n for r in summary.reports]
    assert max(sizes) <= 40

    # three-way agreement spelled out on the worked composite
    g = random_block_graph(BlockRequest(edges=1, cycles=(3,), thetas=((1, 2, 2),)), seed=7)
    oracle = det_cof_oracle(g)
    closed = det_cof_closed(g).detcof
    parts = [block_detcof(classify_block(b)) for b in biconnected_components(g)]
    assert oracle == closed == compose_ghh(parts) == (52, 24)
    print("criterion 08 PASS: 200 fuzz graphs (n<=40) agree three ways, worked composite gives (52, 24)")


def test_criterion_09_kernel_cross_checks():
    rng = random.Random(909)
    for _ in range(200):
        n = rng.randint(1, 6)
        matrix = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        det = bareiss_det(matrix)
        assert det == det_cofactor_expansion(matrix)
        cof = cof_sum(matrix)
        assert cof == cof_sum_minors(matrix)
        for x in (-3, 1, 7):
            shifted = [[entry + x for entry in row] for row in matrix]
            assert bareiss_det(shifted) == det + x * cof
    print("criterion 09 PASS: 200 seeded matrices (n<=6), bareiss/cofactor/minor/shift all agree")


def test_criterion_10_performance():
    g = triangle_chain(200)

    def median_micros(fn):
        samples = []
        for _ in range(5):
            start = time.perf_counter_ns()
            fn()
            samples.append((time.perf_counter_ns() - start) / 1000)
        return statistics.median(samples)

    assert det_cof_closed(g).detcof == det_cof_oracle(g)
    closed = median_micros(lambda: det_cof_closed(g))
    oracle = median_micros(lambda: det_cof_oracle(g))
    assert oracle >= 100 * closed, f"oracle {oracle:.0f}us vs closed {closed:.0f}us"
    print(f"criterion 10 PASS: n=200 closed form {closed:.0f}us vs oracle {oracle:.0f}us (>=100x)")
