"""The four benchmark workloads.

Each workload is built from the workload seed by ``setup`` and then runs
ops by index: ``op(i)`` does the timed work and returns what ``check(i,
result)`` inspects.  ``check`` raises ``CheckFailed`` on a wrong output.
Op ``i`` depends only on the seed and ``i``, so a traced run can repeat
exactly the ops an untraced run made.  A timed run is whole units of
``ops_per_unit`` ops, at least ``min_units`` of them; a traced run repeats
the first ``trace_ops`` ops.

The library is reached through module attributes (``mv.verify_weak_mv_pair``,
not a name imported from ``coarsek.mv``) so the tracer's wrappers see every
call the benchmark makes.
"""

import functools
import json
import math
import os

import numpy as np

from coarsek import (cli, coarse, controlled, generators, geometry, mv, paths,
                     serialize)
from coarsek.operator import FiniteOperator

EXPECTED_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")

REL_TOL = 1e-9   # tolerant of last-bit changes on purpose
ABS_TOL = 1e-12  # for quantities that are zero up to rounding

TETRA = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


class CheckFailed(Exception):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def close(got, want):
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)


@functools.lru_cache(maxsize=None)
def expected(workload):
    """Reference values recorded at the commit that introduced the
    benchmark; ``record_expected.py`` regenerates them."""
    with open(EXPECTED_FILE, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def op_seed(seed, i):
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def relabeled_tetra(rng):
    """The tetrahedron boundary with seeded vertex labels and simplex order;
    every metric quantity the checks use is invariant under relabeling."""
    labels = rng.choice(1000, size=4, replace=False)
    simplices = [tuple(int(labels[v]) for v in rng.permutation(s))
                 for s in TETRA]
    return [simplices[k] for k in rng.permutation(len(simplices))]


class Workload:
    ops_per_unit = 1
    min_units = 1


class MvSplit(Workload):
    """Criterion-3 shape: split and midpoint axioms on the 318-point circle."""

    name = "mv-split"
    trace_ops = 4

    def setup(self, seed, workdir):
        self.seed = seed
        cx, self.space, _ = geometry.circle_space(3, mesh=0.019)
        self.pair = mv.MvPair.from_decomposition(self.space, cx, r=1 / 50)

    def op(self, i):
        return mv.verify_weak_mv_pair(self.space, self.pair, trials=4,
                                      seed=op_seed(self.seed, i))

    def check(self, i, rep):
        bound = self.pair.coercity
        require(rep["passed"] is True, "verify_weak_mv_pair did not pass")
        require(rep["trials"] == 4, f"ran {rep['trials']} trials, not 4")
        require(rep["coercity_bound"] == 4.0, "coercivity bound is not 4")
        require(rep["worst_split_ratio"] <= bound,
                f"split ratio {rep['worst_split_ratio']} > {bound}")
        require(rep["worst_cia_ratio"] <= bound,
                f"midpoint ratio {rep['worst_cia_ratio']} > {bound}")
        require(rep["worst_reconstruction"] <= 1e-14,
                f"reconstruction error {rep['worst_reconstruction']}")


class SphereMetric(Workload):
    """All-pairs graph metric of the 2-sphere plus the space text round trip."""

    name = "sphere-metric"
    trace_ops = 2
    mesh = 0.12

    def setup(self, seed, workdir):
        self.seed = seed
        self.complex = geometry.build_complex(
            relabeled_tetra(np.random.default_rng([seed, 0])))

    def op(self, i):
        space = geometry.discretize(self.complex, self.mesh)
        x1, x2 = geometry.decompose(space, self.complex)
        text = serialize.dumps_space(space)
        loaded = serialize.loads_space(text)
        return space, x1, x2, loaded, serialize.space_hash(loaded)

    def check(self, i, result):
        space, x1, x2, loaded, digest = result
        want = expected(self.name)
        d = space.dist
        n = len(space)
        require(n == want["points"], f"{n} samples, expected {want['points']}")
        require(np.array_equal(d, d.T), "metric not symmetric")
        require(not np.diag(d).any(), "metric diagonal not zero")
        rng = np.random.default_rng([self.seed, i, 1])
        a, b, c = rng.integers(0, n, size=(3, 20000))
        slack = d[a, b] + d[b, c] - d[a, c]
        require(slack.min() >= -1e-12,
                f"triangle inequality fails by {-slack.min()}")
        verts = [k for k, p in enumerate(space.points) if len(p.carrier) == 1]
        require(len(verts) == 4, f"{len(verts)} vertex samples, expected 4")
        vd = d[np.ix_(verts, verts)][~np.eye(4, dtype=bool)]
        require(np.allclose(vd, math.pi / 2, rtol=REL_TOL, atol=0),
                "adjacent vertices are not pi/2 apart")
        require(close(float(d.sum()), want["dist_sum"]),
                f"distance checksum {float(d.sum())!r} != {want['dist_sum']!r}")
        require([int(x1.sum()), int(x2.sum())] == want["pieces"],
                "decomposition piece sizes changed")
        require(np.array_equal(loaded.dist, d)
                and loaded.points == space.points
                and np.array_equal(loaded.internal_dims, space.internal_dims)
                and loaded.mesh == space.mesh,
                "space dump/load round trip is not bit-exact")
        require(len(digest) == 16, "space hash is not 16 hex digits")


class Certify(Workload):
    """One even (rotation) and one odd (homotopy-invariance) certificate."""

    name = "certify"
    trace_ops = 3
    even = controlled.QuasiParams(0.1, 0.3)
    odd = controlled.QuasiParams(0.01, 0.2)
    delta_even = 0.3
    delta_odd = 0.05

    def setup(self, seed, workdir):
        self.seed = seed
        edge = geometry.build_complex([(0, 1)])
        self.thin = geometry.discretize(edge, 0.08)
        self.fat = geometry.discretize(edge, 0.08, fiber_dim=2)
        self.map = coarse.CoarseMap(self.thin, self.fat,
                                    np.arange(len(self.thin)))
        n = 34
        base = geometry.uniform_edge_space(n)
        dims = np.ones(n, dtype=int)
        dims[n - 1] = 2
        self.line = geometry.SampledSpace(base.points, base.dist, dims,
                                          mesh=base.mesh)
        frames = [coarse.CoarseMap.identity(self.line),
                  coarse.CoarseMap(self.line, self.line,
                                   np.minimum(np.arange(n) + 1, n - 1))]
        self.hom = coarse.LipschitzHomotopy(frames, lipschitz_bound=2.0)
        self.base_u = generators.phase_unitary(self.line,
                                               np.linspace(0.0, 1.2, n))

    def op(self, i):
        rng = np.random.default_rng([self.seed, i])
        p, _ = generators.random_quasi_projection(self.thin, self.even, rng)
        v1 = coarse.delta_cover(self.map, self.delta_even)
        v2 = coarse.delta_cover(self.map, self.delta_even, bias="pack-high")
        cert = coarse.rotation_homotopy(v1, v2, p, self.even)
        back = serialize.loads_certificate(serialize.dumps_certificate(cert),
                                           self.fat)
        even_ok, _ = controlled.verify_certificate(back)

        noise = rng.standard_normal(self.line.total_dim)
        noise = np.diag(0.002 * noise / np.abs(noise).max())
        u = FiniteOperator(self.line, self.base_u.entries + noise, 1,
                           self.base_u.scalar)
        odd_cert, report = coarse.homotopy_invariance_certificate(
            self.hom, u, self.odd, self.delta_odd)
        odd_ok, _ = controlled.verify_certificate(odd_cert)
        return cert, back, even_ok, report, odd_ok

    def check(self, i, result):
        cert, back, even_ok, report, odd_ok = result
        require(even_ok is True, "rotation certificate rejected after reload")
        require(len(back.samples) == len(cert.samples)
                and back.step_bounds == cert.step_bounds
                and back.params == cert.params
                and all(np.array_equal(a.entries, b.entries)
                        and a.amplification == b.amplification
                        for a, b in zip(cert.samples, back.samples)),
                "certificate dump/load round trip is not bit-exact")
        require(odd_ok is True, "homotopy-invariance certificate rejected")
        c = self.hom.lipschitz_bound
        eps_bound = 21 * self.odd.eps
        r_bound = 5 * (c * self.odd.r + 4 * self.delta_odd)
        require(report["achieved_eps"] <= eps_bound + 1e-9,
                f"achieved eps {report['achieved_eps']} > {eps_bound}")
        require(report["achieved_r"] <= r_bound + 1e-9,
                f"achieved r {report['achieved_r']} > {r_bound}")


class CliBatch(Workload):
    """Every CLI subcommand once per pass, in-process, on generated files.

    Inputs whose report numbers do not depend on the seed's particular
    draws (relabeled complexes, norm-1 banded operators, phase-twisted
    shifts, a perturbed shift's index) are seeded; the rest are fixed, so
    every numeric report field has a single reference value.  k0-points
    draws seeded ranks and must return exactly them.
    """

    name = "cli-batch"
    min_units = 2  # so every report is compared between two invocations

    def setup(self, seed, workdir):
        self.seed = seed
        rng = np.random.default_rng([seed, 0])
        fixed = np.random.default_rng(20240817)
        inp = os.path.join(workdir, "in")
        self.out = os.path.join(workdir, "out")
        os.makedirs(inp, exist_ok=True)

        def put(name, text):
            path = os.path.join(inp, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            return path

        tet = put("tetra.txt", "".join(" ".join(map(str, s)) + "\n"
                                      for s in relabeled_tetra(rng)))
        circle = put("circle.txt", "0 1\n1 2\n2 0\n")

        _, c318, order318 = geometry.circle_space(3, mesh=0.019)
        s318 = put("c318.txt", serialize.dumps_space(c318))
        band = generators.random_banded(c318, 1 / 50, rng, norm=1.0)
        band_f = put("band.txt", serialize.dumps_operator(band))
        shift = generators.shift_unitary(c318, order318)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, c318.total_dim))
        twisted = FiniteOperator(c318, phases[:, None] * shift.entries)
        twisted_f = put("twisted.txt", serialize.dumps_operator(twisted))

        dist = np.ones((12, 12))
        np.fill_diagonal(dist, 0.0)
        pts = geometry.SampledSpace.from_distance_matrix(
            dist, internal_dims=np.full(12, 2))
        pts_f = put("points.txt", serialize.dumps_space(pts))
        self.ranks = rng.integers(0, 3, size=12)
        blocks = generators.random_blockdiag_quasi_projection(pts, rng,
                                                              self.ranks)
        blocks_f = put("blocks.txt", serialize.dumps_operator(blocks))

        _, c128, order128 = geometry.circle_space(16, mesh=0.5)
        s128 = put("c128.txt", serialize.dumps_space(c128))
        bump = generators.random_banded(c128, 0.9, rng, norm=0.05)
        u128 = FiniteOperator(
            c128, generators.shift_unitary(c128, order128).entries
            + bump.entries)
        u128_f = put("u128.txt", serialize.dumps_operator(u128))
        phi, region, _ = mv.circle_cut(c128, order128)
        cut_f = put("cut.txt", "\n".join(f"{v:.17g}" for v in phi.values))
        region_f = put("region.txt", "\n".join(str(int(x)) for x in region))

        edge = geometry.build_complex([(0, 1)])
        thin = geometry.discretize(edge, 0.08)
        fat = geometry.discretize(edge, 0.08, fiber_dim=2)
        thin_f = put("thin.txt", serialize.dumps_space(thin))
        fat_f = put("fat.txt", serialize.dumps_space(fat))
        map_f = put("map.txt", serialize.dumps_coarse_map(
            coarse.CoarseMap(thin, fat, np.arange(len(thin)))))
        p, _ = generators.random_quasi_projection(
            thin, controlled.QuasiParams(0.1, 0.3), fixed)
        p_f = put("p.txt", serialize.dumps_operator(p))
        nudge = generators.random_banded(thin, 0.3, fixed, selfadjoint=True,
                                         norm=0.005)
        cert = controlled.interpolation_certificate(
            p, FiniteOperator(thin, p.entries + nudge.entries),
            controlled.QuasiParams(0.2, 0.5))
        cert_f = put("cert.txt", serialize.dumps_certificate(cert))

        _, c64, _ = geometry.circle_space(16, mesh=1.0)
        s64 = put("c64.txt", serialize.dumps_space(c64))
        radii = (2.5, 1.5, 0.8, 0.4, 0.2, 0.1)
        path = decaying_path(c64, radii, fixed)
        path_f = put("path.txt", serialize.dumps_path(path))

        self.commands = [
            ("complex-validate", [tet]),
            ("discretize", [tet, "--mesh", "0.15"]),
            ("op-prop", [s318, band_f]),
            ("quasi-check", [s318, twisted_f, "--parity", "odd",
                             "--epsilon", "0.1", "--r", "0.1"]),
            ("k0-points", [pts_f, blocks_f, "--epsilon", "0.1",
                           "--r", "0.5"]),
            ("clutching-index", [s128, u128_f, cut_f, region_f]),
            ("certify-homotopy", [thin_f, cert_f]),
            ("coarse-ad", [thin_f, fat_f, map_f, p_f, "--delta", "0.3",
                           "--r", "0.3"]),
            ("rotation-homotopy", [thin_f, fat_f, map_f, p_f, "--delta",
                                   "0.3", "--epsilon", "0.1", "--r", "0.3"]),
            ("mv-verify", [circle, "--mesh", "0.05", "--r", "0.02",
                           "--trials", "8", "--seed", "9"]),
            ("path-trim", [s64, path_f, "--r", "0.5"]),
        ]
        reports = [self.report_path(name) for name, _ in self.commands]
        self.commands.append(("report", reports))
        self.ops_per_unit = self.trace_ops = len(self.commands)
        self.first_bytes = {}

    def report_path(self, command):
        base = "merged" if command == "report" else command
        return os.path.join(self.out, command, f"{base}.report.txt")

    def op(self, i):
        command, args = self.commands[i % len(self.commands)]
        report = self.report_path(command)
        if os.path.exists(report):  # a stale report must not pass the check
            os.remove(report)
        return command, cli.main([command, *args, "--out",
                                  os.path.dirname(report)])

    def check(self, i, result):
        command, code = result
        require(code == 0, f"{command} exited {code}")
        with open(self.report_path(command), "rb") as fh:
            blob = fh.read()
        first = self.first_bytes.setdefault(command, blob)
        require(blob == first, f"{command} report differs between invocations")
        text = blob.decode("utf-8")
        if command == "report":
            self.check_merged(text)
            return
        fields, table = serialize.loads_report(text)
        want = expected(self.name)[command]
        if command == "k0-points":
            require(fields["classes"] == " ".join(map(str, self.ranks)),
                    f"k0 classes {fields['classes']} != seeded ranks")
        same_values(command, fields, want["fields"])
        require(len(table) == len(want["table"]),
                f"{command} table has {len(table)} rows")
        for got_row, want_row in zip(table, want["table"]):
            same_values(command, dict(enumerate(got_row)),
                        dict(enumerate(want_row)))

    def check_merged(self, text):
        lines = text.splitlines()
        require(lines[:2] == ["coarsek-report v1",
                              f"sections: {len(self.commands) - 1}"],
                "merged report header changed")
        at = 2
        for command, _ in self.commands[:-1]:
            require(lines[at] == f"## {command}.report.txt",
                    f"merged report lacks the {command} section")
            with open(self.report_path(command), encoding="utf-8") as fh:
                fields, _ = serialize.loads_report(fh.read())
            for k, v in fields.items():
                at += 1
                require(lines[at] == f"{k}: {v}",
                        f"merged {command} field {k} differs")
            at += 1
            while at < len(lines) and not lines[at].startswith("## "):
                at += 1


def same_values(command, got, want):
    """Every reference field matches: numbers within REL_TOL, the rest
    exactly; a reference of None marks a seed-dependent field."""
    require(set(got) == set(want), f"{command} report fields changed")
    for key, ref in want.items():
        if ref is None:
            continue
        value = got[key]
        try:
            ok = close(float(value), float(ref))
        except ValueError:
            ok = value == ref
        require(ok, f"{command} {key} = {value}, expected {ref}")


def decaying_path(space, radii, rng):
    """Operator path whose propagation decays through ``radii``."""
    values = [generators.random_banded(space, r, rng, norm=1.0) for r in radii]
    return paths.PathOperator(np.arange(1.0, len(radii) + 1), values)


WORKLOADS = {w.name: w for w in (MvSplit, SphereMetric, Certify, CliBatch)}
