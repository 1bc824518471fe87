"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import random
import time

import numpy as np
import pytest

from _fixtures import aux_index

from kshg import (
    Assignment,
    Classification,
    FamilySpec,
    Hermitian3,
    Ray,
    brute_force_max,
    check_subgraph_decomposition,
    classical_bound,
    classify,
    closed_form_independence,
    eigensystem,
    expand,
    expand_hyper_edge,
    family_bound,
    generate,
    ks_propagate,
    max_edge_observable,
    max_independent_set,
    mis_oracle,
    overlap,
    projector_sum,
    random_hypergraph,
    tetrahedron_rays,
    wheel7_demo_rays,
)
from kshg.cli import main


def _ok(line: str) -> None:
    print(f"\n{line}: PASS")


def test_criterion_01_single_edge_maximum():
    started = time.perf_counter()
    for n in range(4):
        assert brute_force_max(expand_hyper_edge(n)) == 2 * n + 1
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _ok(f"criterion 01: single-edge maximum equals 2n+1 for n=0..3 ({elapsed:.2f}s)")


def test_criterion_02_edge_observable_bound():
    for n in (1, 2):
        assert max_edge_observable(expand_hyper_edge(n)) == 2 * n
    _ok("criterion 02: edge-observable maximum equals 2n for n=1,2")


def test_criterion_03_basic_family_bounds():
    specs = (
        [FamilySpec("complete", k=k, weights=w) for k in range(2, 7) for w in (1, 2)]
        + [FamilySpec("linear", k=k, weights=w) for k in range(2, 9) for w in (1, 2)]
        + [FamilySpec("cyclic", k=k, weights=w) for k in range(3, 9) for w in (1, 2)]
    )
    brute_checked = 0
    for spec in specs:
        h = generate(spec)
        bound = classical_bound(h)
        assert family_bound(spec).total == bound.total, spec
        g = expand(h)
        if len(g.vertices) <= 22:
            assert brute_force_max(g) == bound.total, spec
            brute_checked += 1
    assert brute_checked >= 8
    _ok(
        "criterion 03: closed-form bounds match exact MIS for "
        f"{len(specs)} instances; brute force attains the bound on {brute_checked}"
    )


def test_criterion_04_general_bound_soundness():
    rng = random.Random(20260809)
    equal = 0
    trials = 200
    for _ in range(trials):
        h = random_hypergraph(rng, rng.randint(2, 5), max_weight=2)
        oracle = mis_oracle(expand(h), max_vertices=200)
        bound = classical_bound(h).total
        assert oracle <= bound
        if oracle == bound:
            equal += 1
    _ok(
        f"criterion 04: oracle <= classical bound on {trials} random hyper-graphs "
        f"(equality rate {equal / trials:.3f})"
    )


def test_criterion_05_subgraph_decomposition_identity():
    rng = random.Random(11)
    for _ in range(1000):
        h = random_hypergraph(rng, rng.randint(3, 6), max_weight=2)
        g = expand(h)
        a = Assignment(tuple(rng.randint(0, 1) for _ in g.vertices))
        result = check_subgraph_decomposition(h, a)
        assert result.equal, (h, result)
    _ok("criterion 05: decomposition identity exact on 1000 random pairs, zero failures")


def test_criterion_06_independence_formulas():
    started = time.perf_counter()
    grid = (
        [(FamilySpec("fractal-tree", k=k), u) for k, u in ((1, 2), (2, 5), (3, 10))]
        + [(FamilySpec("fractal-cyclic", k=k), u) for k, u in ((1, 1), (2, 3), (3, 7))]
        + [
            (FamilySpec("square-lattice", mx=mx, my=my), (mx * my + 1) // 2)
            for mx in range(1, 5)
            for my in range(1, 5)
        ]
        + [
            (FamilySpec("torus-lattice", mx=3, my=3), 3),
            (FamilySpec("torus-lattice", mx=3, my=4), 4),
            (FamilySpec("torus-lattice", mx=4, my=4), 8),
            (FamilySpec("wheel7"), 2),
        ]
    )
    for spec, expected in grid:
        assert closed_form_independence(spec) == expected, spec
        assert max_independent_set(generate(spec)).size == expected, spec
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _ok(f"criterion 06: closed-form independence matches exact MIS ({elapsed:.2f}s)")


def test_criterion_07_forced_contradiction():
    for n in range(1, 5):
        g = expand_hyper_edge(n)
        outcome = ks_propagate(g, {0: 1, 1: 1})
        assert outcome.contradiction
        assert outcome.violation.kind == "edge"
        expected = {aux_index(g, 0, "p", 0), aux_index(g, 0, "q", 0)}
        assert set(outcome.violation.vertices) == expected
    _ok("criterion 07: propagation contradicts at the (p0, q0) edge for n=1..4")


def test_criterion_08_quantum_wheel():
    h = generate(FamilySpec("wheel7"), rays=wheel7_demo_rays(0.005))
    report = classify(h)
    assert abs(report.quantum.lambda_min - 7.0 / 3.0) < 0.05
    assert report.classification is Classification.STATE_INDEPENDENT
    assert report.margin > 0.25
    _ok(
        "criterion 08: wheel demo is state-independent "
        f"(lambda_min={report.quantum.lambda_min:.6f}, margin={report.margin:.3f})"
    )


def test_criterion_09_tetrahedron_identity():
    total = projector_sum(tetrahedron_rays())
    deviation = float(np.max(np.abs(total.matrix - (4.0 / 3.0) * np.eye(3))))
    assert deviation <= 1e-12
    _ok(f"criterion 09: tetrahedron projector sum is (4/3)*I (deviation {deviation:.2e})")


def test_criterion_10_numerics():
    rng = np.random.RandomState(1234)
    worst_residual = 0.0
    for _ in range(1000):
        raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m = Hermitian3(raw + raw.conj().T)
        eig = eigensystem(m)
        for lam, vec in zip(eig.eigenvalues, eig.eigenvectors):
            residual = float(
                np.linalg.norm(m.matrix @ vec.amplitudes - lam * vec.amplitudes)
            )
            worst_residual = max(worst_residual, residual)
    assert worst_residual <= 1e-12
    worst_phase = 0.0
    for _ in range(200):
        a = Ray.normalized(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        b = Ray.normalized(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        base = overlap(a, b)
        pa = Ray(np.exp(1j * rng.uniform(0, 2 * np.pi)) * a.amplitudes)
        pb = Ray(np.exp(1j * rng.uniform(0, 2 * np.pi)) * b.amplitudes)
        worst_phase = max(worst_phase, abs(overlap(pa, pb) - base))
    assert worst_phase <= 1e-12
    _ok(
        "criterion 10: eigensolver residuals and overlap phase invariance "
        f"(worst residual {worst_residual:.2e}, worst phase drift {worst_phase:.2e})"
    )


def test_criterion_11_cli_determinism(capsys, tmp_path):
    outputs = []
    for attempt in range(2):
        graph = tmp_path / f"w7-{attempt}.hg"
        rays = tmp_path / f"w7-{attempt}.rays"
        assert main(["gen", "wheel7", "--rays-out", str(rays), "-o", str(graph)]) == 0
        gen_out = capsys.readouterr().out.replace(str(tmp_path), "").replace(f"-{attempt}", "")
        assert main(["bound", str(graph)]) == 0
        bound_out = capsys.readouterr().out.replace(str(tmp_path), "").replace(f"-{attempt}", "")
        assert main(["quantum", str(graph), "--rays", str(rays)]) == 0
        quantum_out = capsys.readouterr().out.replace(str(tmp_path), "").replace(f"-{attempt}", "")
        assert main(["check", "decomposition", "--trials", "20", "--seed", "7"]) == 0
        check_out = capsys.readouterr().out
        outputs.append(gen_out + bound_out + quantum_out + check_out)
        assert "classification = state-independent" in quantum_out
    assert outputs[0].encode() == outputs[1].encode()
    _ok("criterion 11: gen -> bound -> quantum pipeline is byte-identical across runs")
