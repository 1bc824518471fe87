"""The ray layer against its reference route, bit for bit.

`build_from_rays`, `generate` with rays, `quantum_range`, `classify` and
`verify_realization` compute each overlap, projector sum and spectrum once.
The references in `_fixtures` take the route of `overlap`, the checked
`projector_sum` and `eigensystem`; every answer, error and warning must be
the same, floats to the last bit (equal `repr`s). The CLI commands that
read rays must print the reference's bytes.
"""

import contextlib
import io
import os
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _fixtures import (
    _build_from_rays_reference,
    _classify_reference,
    _generate_reference,
    _overlaps_reference,
    _quantum_range_reference,
    _verify_realization_reference,
    clifton_realization,
)

from kshg import (
    CoreVertex,
    ExpandedGraph,
    FamilySpec,
    HyperEdge,
    HyperGraph,
    Ray,
    ValidationError,
    build_from_rays,
    classify,
    cli,
    expand,
    expand_hyper_edge,
    family_vertex_count,
    generate,
    quantum_range,
    verify_realization,
    wheel7_demo_rays,
)
from kshg.cli import serialize_hypergraph, serialize_rays
from kshg.linalg3 import HERMITICITY_TOLERANCE, _projector_sum

seeds = st.integers(0, 2**32 - 1)


def outcome(fn, *args, **kwargs):
    """What a call does: ("ok", result, warnings) or ("error", type, message),
    each warning as (category, message)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args, **kwargs)
        except ValidationError as exc:
            return ("error", type(exc), str(exc))
    return ("ok", result, [(w.category, str(w.message)) for w in caught])


def unitary(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    return q


def random_rays(seed: int, k: int) -> list[Ray]:
    rng = np.random.default_rng(seed)
    return [Ray.normalized(v) for v in rng.standard_normal((k, 3)) + 1j * rng.standard_normal((k, 3))]


def integer_rays(seed: int, k: int) -> list[Ray]:
    """Rays of small Gaussian integers: exact orthogonality, exact overlaps
    such as 1/3 = n/(n+2) at n = 1, and parallel pairs."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < k:
        v = rng.integers(-1, 2, 3) + 1j * rng.integers(-1, 2, 3) * rng.integers(0, 2)
        if v.any():
            out.append(Ray.normalized(v))
    return out


def clifton_rays(seed: int, perturbation: float) -> list[Ray]:
    """The weight-1 Clifton realization turned by a random unitary, each ray
    moved by up to `perturbation` and normalized again."""
    u = unitary(seed)
    rng = np.random.default_rng(seed + 1)
    return [Ray.normalized(u @ r.amplitudes + perturbation * rng.standard_normal(3))
            for r in clifton_realization()]


def boundary_rays(seed: int, n: int, ulps: int) -> list[Ray]:
    """Two rays whose overlap is within a few ulps of n/(n+2) + 1e-9, where
    `hyper_edge_weight` steps from n to n + 1, turned by a random unitary,
    and one random ray."""
    c = n / (n + 2) + 1e-9
    for _ in range(abs(ulps)):
        c = np.nextafter(c, np.inf if ulps > 0 else -np.inf)
    u = unitary(seed)
    a = u @ np.array([1.0, 0.0, 0.0])
    b = u @ np.array([c, np.sqrt(1.0 - c * c), 0.0])
    return [Ray.normalized(a), Ray.normalized(b)] + random_rays(seed, 1)


@st.composite
def ray_sets(draw) -> list[Ray]:
    kind = draw(st.sampled_from(("random", "integer", "wheel7", "clifton", "boundary")))
    seed = draw(seeds)
    if kind == "random":
        return random_rays(seed, draw(st.integers(2, 8)))
    if kind == "integer":
        return integer_rays(seed, draw(st.integers(2, 7)))
    if kind == "wheel7":
        delta = draw(st.floats(1e-4, 0.09)) * draw(st.sampled_from((1, -1)))
        return list(wheel7_demo_rays(delta))
    if kind == "clifton":
        return clifton_rays(seed, draw(st.sampled_from((0.0, 1e-12, 1e-6, 1e-3))))
    return boundary_rays(seed, draw(st.integers(0, 6)), draw(st.integers(-4, 4)))


def edge_triples(h: HyperGraph) -> tuple[tuple[int, int, int], ...]:
    return tuple((e.i, e.j, e.weight) for e in h.edges)


def same_floats(a, b) -> bool:
    return a == b and repr(a) == repr(b)


CAPS = (None, 1, 2, 3, 4, 6, 10**9)


class TestBuildFromRays:
    @settings(max_examples=300, deadline=None)
    @given(rays=ray_sets(), cap=st.sampled_from(CAPS))
    def test_matches_the_reference(self, rays, cap):
        got, want = outcome(build_from_rays, rays, cap), outcome(_build_from_rays_reference, rays, cap)
        if want[0] == "error":
            assert got == want
            return
        h = got[1]
        assert edge_triples(h) == want[1] and got[2] == want[2] == []
        assert h.rays == tuple(rays)
        assert same_floats(h.overlaps, _overlaps_reference(h))

    @pytest.mark.parametrize("cap, message", [
        (0, "weight cap must be a positive integer, got 0"),
        (-2, "weight cap must be a positive integer, got -2"),
        (1.0, "weight cap must be an integer, got 1.0"),
    ])
    def test_bad_cap_refused_once(self, cap, message):
        rays = random_rays(3, 4)
        assert outcome(build_from_rays, rays, cap) == outcome(_build_from_rays_reference, rays, cap) \
            == ("error", ValidationError, message)

    def test_bad_cap_refused_before_any_pair(self):
        # The cap is checked once, before the pairs: a parallel first pair
        # no longer comes first, as it did when each pair checked the cap.
        rays = [Ray((1, 0, 0)), Ray((1, 0, 0)), Ray((0, 1, 0))]
        with pytest.raises(ValidationError, match="^weight cap must be a positive integer, got 0$"):
            build_from_rays(rays, cap=0)
        with pytest.raises(ValidationError, match=r"^rays p1 and p2 are parallel \(overlap 1\)$"):
            build_from_rays(rays, cap=1)

    def test_graph_without_rays_keeps_no_overlaps(self):
        assert HyperGraph(3, (HyperEdge(0, 1, 1),)).overlaps is None


FAMILY_SPECS = (
    FamilySpec("wheel7"),
    FamilySpec("linear", k=2),
    FamilySpec("linear", k=5),
    FamilySpec("cyclic", k=3),
    FamilySpec("cyclic", k=7),
    FamilySpec("complete", k=4),
    FamilySpec("fractal-tree", k=1),
    FamilySpec("square-lattice", mx=2, my=3),
)


class TestGenerateWithRays:
    @settings(max_examples=200, deadline=None)
    @given(spec=st.sampled_from(FAMILY_SPECS), seed=seeds, data=st.data())
    def test_matches_the_reference(self, spec, seed, data):
        n = family_vertex_count(spec)
        choices = ["random", "integer"] + (["wheel7"] if n == 7 else [])
        kind = data.draw(st.sampled_from(choices))
        rays = {"random": lambda: random_rays(seed, n), "integer": lambda: integer_rays(seed, n),
                "wheel7": lambda: list(wheel7_demo_rays(data.draw(st.floats(1e-4, 0.09))))}[kind]()
        got, want = outcome(generate, spec, rays), outcome(_generate_reference, spec, rays)
        if want[0] == "error":
            assert got == want
            return
        h = got[1]
        assert edge_triples(h) == tuple(sorted(want[1])) and got[2] == want[2] == []
        assert same_floats(h.overlaps, _overlaps_reference(h))

    def test_wrong_ray_count(self):
        rays = random_rays(1, 6)
        assert outcome(generate, FamilySpec("wheel7"), rays) \
            == outcome(_generate_reference, FamilySpec("wheel7"), rays) \
            == ("error", ValidationError, "family 'wheel7' needs 7 rays, got 6")


@st.composite
def bound_graphs(draw) -> HyperGraph:
    """A graph built from a ray set, with some edges lowered below the weight
    their overlap requires (underweight) and some raised."""
    rays = draw(ray_sets())
    try:
        h = build_from_rays(rays, cap=draw(st.sampled_from(CAPS)))
    except ValidationError:  # a parallel pair
        rays = random_rays(draw(seeds), len(rays))
        h = build_from_rays(rays)
    shifts = draw(st.lists(st.integers(-2, 2), min_size=len(h.edges), max_size=len(h.edges)))
    edges = tuple(HyperEdge(e.i, e.j, max(0, e.weight + s)) for e, s in zip(h.edges, shifts))
    return HyperGraph(h.vertex_count, edges, h.rays)


class TestQuantumRange:
    @settings(max_examples=300, deadline=None)
    @given(h=bound_graphs(), underweight=st.sampled_from(("error", "warn")))
    def test_quantum_range_matches_the_reference(self, h, underweight):
        got = outcome(quantum_range, h, underweight=underweight)
        want = outcome(_quantum_range_reference, h, underweight=underweight)
        assert got == want and repr(got) == repr(want)

    @settings(max_examples=200, deadline=None)
    @given(h=bound_graphs(), underweight=st.sampled_from(("error", "warn")))
    def test_classify_matches_the_reference(self, h, underweight):
        got = outcome(classify, h, underweight=underweight)
        want = outcome(_classify_reference, h, underweight=underweight)
        assert got == want and repr(got) == repr(want)

    def test_refusals_match_the_reference(self):
        h = HyperGraph(3, (HyperEdge(0, 1, 1),))
        for underweight in ("error", "bogus"):
            assert outcome(quantum_range, h, underweight=underweight) \
                == outcome(_quantum_range_reference, h, underweight=underweight)


@st.composite
def realizations(draw):
    """An expanded graph with one ray per vertex: the Clifton gadget's
    realizations (exact, perturbed, or with a random ray), or random or
    small-integer rays on the expansion of a small weighted graph, which
    fail the checks; the integer rays tie for the worst deviations."""
    seed = draw(seeds)
    if draw(st.booleans()):
        g = expand_hyper_edge(1)
        rays = clifton_rays(seed, draw(st.sampled_from((0.0, 1e-12, 1e-9, 1e-6, 1e-2))))
        if draw(st.booleans()):
            rays[draw(st.integers(0, 7))] = random_rays(seed, 1)[0]
    else:
        k = draw(st.integers(2, 4))
        pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
        weights = draw(st.lists(st.integers(0, 2), min_size=len(chosen), max_size=len(chosen)))
        g = expand(HyperGraph(k, tuple(HyperEdge(i, j, w) for (i, j), w in zip(chosen, weights))))
        rays = draw(st.sampled_from((random_rays, integer_rays)))(seed, g.vertex_count)
    return g, rays


class TestVerifyRealization:
    @settings(max_examples=300, deadline=None)
    @given(case=realizations(), tol=st.sampled_from((0.0, 1e-12, 1e-9, 1e-3, 1.0)), as_mapping=st.booleans())
    def test_matches_the_reference(self, case, tol, as_mapping):
        g, rays = case
        coords = dict(enumerate(rays)) if as_mapping else rays
        got = outcome(verify_realization, g, coords, tol)
        want = outcome(_verify_realization_reference, g, coords, tol)
        assert got == want and repr(got) == repr(want)

    def test_refusals_match_the_reference(self):
        g = expand_hyper_edge(1)
        rays = clifton_realization()
        for coords, tol in ((rays, -1.0), (rays, float("nan")), (rays[:5], 1e-9), (dict(enumerate(rays[:7])), 1e-9)):
            assert outcome(verify_realization, g, coords, tol) \
                == outcome(_verify_realization_reference, g, coords, tol)


class TestVerifyScanEdges:
    """The cases at the edges of the one worst-deviation scan: no place, no
    deviating place, an exact tie, and a refusal before any scan."""

    @staticmethod
    def same_as_reference(g, coords, tol):
        got = outcome(verify_realization, g, coords, tol)
        want = outcome(_verify_realization_reference, g, coords, tol)
        assert got == want and repr(got) == repr(want)
        return got

    @pytest.mark.parametrize("h", [
        HyperGraph(1, ()),
        HyperGraph(3, (HyperEdge(0, 1, 0), HyperEdge(0, 2, 0), HyperEdge(1, 2, 0))),
    ], ids=["one-vertex", "all-weight-0"])
    def test_nothing_deviates(self, h):
        g = expand(h)
        basis = [Ray((1, 0, 0)), Ray((0, 1, 0)), Ray((0, 0, 1))]
        kind, report, _ = self.same_as_reference(g, basis[: g.vertex_count], 0.0)
        assert kind == "ok" and report.passed
        assert [(c.worst_deviation, c.worst_item) for c in report.checks] == [(0.0, "-")] * 4

    def test_exact_tie_reports_the_lower_edge(self):
        # P3 lies halfway between P2 and P4, so both of its edges overlap by
        # exactly the same 1/sqrt(2); the set of edges iterates (2, 3) first.
        g = ExpandedGraph(tuple(CoreVertex(i) for i in range(4)), frozenset({(1, 2), (2, 3)}), ())
        rays = [Ray((0, 1, 0)), Ray((1, 0, 0)), Ray.normalized((1, 0, 1)), Ray((0, 0, 1))]
        assert abs(np.vdot(rays[1].amplitudes, rays[2].amplitudes)) \
            == abs(np.vdot(rays[2].amplitudes, rays[3].amplitudes)) > 0
        for tol in (0.0, 1.0):
            kind, report, _ = self.same_as_reference(g, rays, tol)
            edge = report.checks[0]
            assert (edge.name, edge.passed, edge.worst_item) == ("edge-orthogonality", tol == 1.0, "edge (P2, P3)")

    def test_missing_vertex_keeps_its_message(self):
        g = expand_hyper_edge(1)
        coords = dict(enumerate(clifton_realization()))
        del coords[3]
        assert self.same_as_reference(g, coords, 1e-9) \
            == ("error", ValidationError, "missing coordinates for vertices ['e0:q0']")


class TestInternalProjectorSum:
    @settings(max_examples=300, deadline=None)
    @given(seed=seeds, k=st.integers(1, 13))
    def test_hermitian_far_inside_the_tolerance(self, seed, k):
        # Not exactly Hermitian: random sums of 1-13 unit rays deviate by up
        # to about 1e-15, four orders below the 1e-12 the checked sum allows.
        m = _projector_sum([r.amplitudes for r in random_rays(seed, k)])
        assert float(np.abs(m - m.conj().T).max()) < 1e-13 < HERMITICITY_TOLERANCE


def reference_build(rays, cap=None) -> HyperGraph:
    edges = tuple(HyperEdge(*e) for e in _build_from_rays_reference(rays, cap))
    return HyperGraph(len(rays), edges, tuple(rays))


REFERENCE_ROUTE = {"build_from_rays": reference_build, "classify": _classify_reference,
                   "verify_realization": _verify_realization_reference}


def run_cli(workdir: str, argv: list[str], reference: bool) -> tuple:
    """Exit code, stdout, stderr and the bytes of `out.hg`, if written, of
    one in-process run, on the library or on the reference route."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        if reference:
            for name, fn in REFERENCE_ROUTE.items():
                stack.enter_context(mock.patch.object(cli, name, fn))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        code = cli.main(argv)
    written = None
    path = os.path.join(workdir, "out.hg")
    if os.path.exists(path):
        with open(path, "rb") as fh:
            written = fh.read()
        os.remove(path)
    return code, out.getvalue(), err.getvalue(), written


class TestCliBytes:
    @settings(max_examples=100, deadline=None)
    @given(h=bound_graphs(), as_json=st.booleans(), underweight=st.sampled_from(("error", "warn")),
           scale=st.sampled_from((None, 1.0, 1e200, 1e-200)), cap=st.sampled_from(CAPS))
    def test_quantum_and_weights_print_the_reference_bytes(self, h, as_json, underweight, scale, cap):
        with tempfile.TemporaryDirectory() as workdir:
            graph, rays = os.path.join(workdir, "g.hg"), os.path.join(workdir, "r.rays")
            with open(graph, "w") as fh:
                fh.write(serialize_hypergraph(h))
            text = serialize_rays(h.rays)
            if scale not in (None, 1.0):
                text = "\n".join(" ".join(repr(float(x) * scale) for x in line.split())
                                 for line in text.splitlines()) + "\n"
            with open(rays, "w") as fh:
                fh.write(text)
            normalize = ["--normalize"] if scale is not None else []
            flags = normalize + (["--json"] if as_json else [])
            commands = [
                ["quantum", graph, "--rays", rays, "--underweight", underweight, *flags],
                ["weights", rays, "-o", os.path.join(workdir, "out.hg"), *flags,
                 *(["--cap", str(cap)] if cap is not None else [])],
            ]
            for argv in commands:
                assert run_cli(workdir, argv, False) == run_cli(workdir, argv, True)

    @settings(max_examples=100, deadline=None)
    @given(case=realizations(), as_json=st.booleans(), tol=st.sampled_from(("0", "1e-9", "1e-3")))
    def test_verify_prints_the_reference_bytes(self, case, as_json, tol):
        g, rays = case
        k = g.vertex_count - sum(6 * f.weight for f in g.fragments)
        with tempfile.TemporaryDirectory() as workdir:
            graph = os.path.join(workdir, "g.hg")
            with open(graph, "w") as fh:
                fh.write(f"vertices {k}\n" + "".join(
                    f"edge {f.endpoints[0] + 1} {f.endpoints[1] + 1} {f.weight}\n" for f in g.fragments))
            core, aux = os.path.join(workdir, "core.rays"), os.path.join(workdir, "aux.rays")
            with open(core, "w") as fh:
                fh.write(serialize_rays(rays[:k]))
            with open(aux, "w") as fh:
                fh.write(serialize_rays(rays[k:]) if len(rays) > k else "")
            argv = ["verify", graph, "--rays", core, "--aux", aux, "--tol", tol] + (["--json"] if as_json else [])
            assert run_cli(workdir, argv, False) == run_cli(workdir, argv, True)
