import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from coarsek import serialize
from coarsek.cli import KNOB_DEFAULTS, main
from coarsek.coarse import CoarseMap
from coarsek.controlled import QuasiParams, interpolation_certificate
from coarsek.generators import (
    random_banded,
    random_blockdiag_quasi_projection,
    shift_unitary,
)
from coarsek.geometry import (SampledSpace, build_complex, circle_space,
                              discretize)
from coarsek.mv import circle_cut
from coarsek.operator import FiniteOperator
from coarsek.paths import PathOperator
from coarsek.serialize import (
    dumps_certificate,
    dumps_coarse_map,
    dumps_operator,
    dumps_path,
    dumps_space,
    loads_report,
    loads_space,
    space_hash,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture()
def outdir(tmp_path):
    d = tmp_path / "out"
    return str(d)


def read_report(outdir, command):
    with open(os.path.join(outdir, f"{command}.report.txt")) as fh:
        return loads_report(fh.read())


class TestBasicCommands:
    def test_complex_validate(self, tmp_path, outdir):
        cx = write(tmp_path / "complex.txt", "0 1 2\n2 3\n")
        assert main(["complex-validate", cx, "--out", outdir]) == 0
        fields, _ = read_report(outdir, "complex-validate")
        assert fields["dimension"] == "2"
        assert fields["face_closed"] == "True"

    def test_complex_parse_error(self, tmp_path, outdir):
        cx = write(tmp_path / "complex.txt", "0 zero\n")
        assert main(["complex-validate", cx, "--out", outdir]) == 2

    def test_discretize_and_opprop(self, tmp_path, outdir):
        cx = write(tmp_path / "complex.txt", "0 1\n")
        assert main(["discretize", cx, "--mesh", "0.5", "--out", outdir]) == 0
        space_file = os.path.join(outdir, "space.txt")
        assert os.path.exists(space_file)
        from coarsek.serialize import loads_space
        space = loads_space(Path(space_file).read_text())
        rng = np.random.default_rng(0)
        op = random_banded(space, 0.5, rng)
        opf = write(tmp_path / "op.txt", dumps_operator(op))
        assert main(["op-prop", space_file, opf, "--out", outdir]) == 0
        fields, _ = read_report(outdir, "op-prop")
        assert float(fields["propagation"]) < 0.5

    @pytest.mark.parametrize("argv, error", [
        (["--fiber", "65537"], "fiber_dim must be in 1..65536"),
        # 2 * 10**7 samples a side: the N x N metric would never fit
        (["--mesh", "1e-7"], "mesh 1e-07 is too fine"),
        # the step count 2 / mesh overflows a float
        (["--mesh", "5e-324"], "mesh 5e-324 is too fine"),
    ], ids=["fiber", "mesh", "subnormal-mesh"])
    def test_discretize_refuses_a_space_too_large(self, tmp_path, outdir, capsys,
                                                  argv, error):
        cx = write(tmp_path / "circle.txt", "0 1\n1 2\n2 0\n")
        assert main(["discretize", cx, *argv, "--out", outdir]) == 3
        assert capsys.readouterr().err.startswith(f"FAIL: {error}")
        assert not os.path.exists(os.path.join(outdir, "space.txt"))

    def test_discretize_formats_the_space_once(self, tmp_path, outdir, monkeypatch):
        calls = []
        dumps = serialize.dumps_space
        monkeypatch.setattr(serialize, "dumps_space",
                            lambda space: calls.append(space) or dumps(space))
        cx = write(tmp_path / "complex.txt", "0 1\n")
        assert main(["discretize", cx, "--mesh", "0.5", "--out", outdir]) == 0
        assert len(calls) == 1
        fields, _ = read_report(outdir, "discretize")
        with open(os.path.join(outdir, "space.txt")) as fh:
            assert fields["space_hash"] == space_hash(loads_space(fh.read()))

    def test_quasi_check_pass_and_fail(self, tmp_path, outdir):
        d = np.full((2, 2), 1.0)
        np.fill_diagonal(d, 0.0)
        space = SampledSpace.from_distance_matrix(d)
        sf = write(tmp_path / "space.txt", dumps_space(space))
        proj = FiniteOperator(space, np.diag([1.0, 0.0]).astype(complex))
        pf = write(tmp_path / "p.txt", dumps_operator(proj))
        assert main(["quasi-check", sf, pf, "--epsilon", "0.1", "--r", "0.5",
                     "--out", outdir]) == 0
        fields, _ = read_report(outdir, "quasi-check")
        assert fields["passed"] == "True"
        assert float(fields["projection_defect"]) == 0.0
        bad = FiniteOperator(space, np.diag([0.5, 0.0]).astype(complex))
        bf = write(tmp_path / "bad.txt", dumps_operator(bad))
        assert main(["quasi-check", sf, bf, "--epsilon", "0.1", "--r", "0.5",
                     "--out", outdir]) == 1

    def test_failure_emits_machine_parsable_line(self, tmp_path, outdir,
                                                 capsys):
        d = np.full((2, 2), 1.0)
        np.fill_diagonal(d, 0.0)
        space = SampledSpace.from_distance_matrix(d)
        sf = write(tmp_path / "space.txt", dumps_space(space))
        bad = FiniteOperator(space, np.diag([0.5, 0.0]).astype(complex))
        bf = write(tmp_path / "bad.txt", dumps_operator(bad))
        main(["quasi-check", sf, bf, "--epsilon", "0.1", "--r", "0.5",
              "--out", outdir])
        out = capsys.readouterr().out
        assert out.startswith("FAIL:")

    @pytest.mark.parametrize("command", ["op-prop", "quasi-check"])
    def test_non_finite_operator_is_a_precondition_error(
            self, tmp_path, outdir, capsys, command):
        d = np.full((3, 3), 1.0)
        np.fill_diagonal(d, 0.0)
        space = SampledSpace.from_distance_matrix(d)
        sf = write(tmp_path / "space.txt", dumps_space(space))
        # the library refuses to build such an operator, so write its file by hand
        zero = dumps_operator(FiniteOperator.zeros(space))
        nf = write(tmp_path / "nan.txt", zero.replace("0 0 0 0 0 0", " ".join(["nan"] * 6)))
        assert main([command, sf, nf, "--out", outdir]) == 3
        assert capsys.readouterr().err.startswith("FAIL:")

    def test_k0_points(self, tmp_path, outdir, rng):
        d = np.full((4, 4), 1.0)
        np.fill_diagonal(d, 0.0)
        space = SampledSpace.from_distance_matrix(d)
        sf = write(tmp_path / "space.txt", dumps_space(space))
        p = random_blockdiag_quasi_projection(space, rng, [1, 0, 1, 0])
        pf = write(tmp_path / "p.txt", dumps_operator(p))
        assert main(["k0-points", sf, pf, "--epsilon", "0.1", "--r", "0.5",
                     "--out", outdir]) == 0
        fields, _ = read_report(outdir, "k0-points")
        assert fields["classes"] == "1 0 1 0"

    def test_certify_homotopy(self, tmp_path, outdir):
        d = np.zeros((1, 1))
        space = SampledSpace.from_distance_matrix(d, internal_dims=[2])
        sf = write(tmp_path / "space.txt", dumps_space(space))
        p = FiniteOperator(space, np.diag([1.0, 0.0]).astype(complex))
        q = FiniteOperator(space, np.diag([0.98, 0.0]).astype(complex))
        cert = interpolation_certificate(p, q, QuasiParams(0.2, 1.0))
        from coarsek.serialize import dumps_certificate
        cf = write(tmp_path / "cert.txt", dumps_certificate(cert))
        assert main(["certify-homotopy", sf, cf, "--out", outdir]) == 0

    def test_certify_homotopy_rejects_a_tampered_step_bound(self, tmp_path, outdir,
                                                            capsys):
        space = SampledSpace.from_distance_matrix(np.zeros((1, 1)), internal_dims=[2])
        sf = write(tmp_path / "space.txt", dumps_space(space))
        p = FiniteOperator(space, np.diag([1.0, 0.0]).astype(complex))
        q = FiniteOperator(space, np.diag([0.98, 0.0]).astype(complex))
        cert = interpolation_certificate(p, q, QuasiParams(0.2, 1.0))
        cert.step_bounds[0] /= 2
        cf = write(tmp_path / "cert.txt", dumps_certificate(cert))
        assert main(["certify-homotopy", sf, cf, "--out", outdir]) == 1
        out = capsys.readouterr().out
        assert out.startswith("FAIL: certificate rejected")
        assert "recorded step bound" in out

    def test_path_trim(self, tmp_path, outdir, rng):
        d = np.abs(np.subtract.outer(np.arange(4.0), np.arange(4.0)))
        space = SampledSpace.from_distance_matrix(d)
        sf = write(tmp_path / "space.txt", dumps_space(space))
        vals = [random_banded(space, radius, rng)
                for radius in (3.5, 2.5, 0.5)]
        path = PathOperator([1.0, 2.0, 3.0], vals)
        pf = write(tmp_path / "path.txt", dumps_path(path))
        assert main(["path-trim", sf, pf, "--r", "1.0", "--out", outdir]) == 0
        fields, _ = read_report(outdir, "path-trim")
        assert fields["trim_time"] == "3"
        assert os.path.exists(os.path.join(outdir, "trimmed-path.txt"))


class TestCoarseCommands:
    def setup_spaces(self, tmp_path):
        from coarsek.geometry import build_complex
        thin = discretize(build_complex([(0, 1)]), 0.4)
        fat = discretize(build_complex([(0, 1)]), 0.4, fiber_dim=2)
        sf = write(tmp_path / "thin.txt", dumps_space(thin))
        tf = write(tmp_path / "fat.txt", dumps_space(fat))
        f = CoarseMap(thin, fat, np.arange(len(thin)))
        mf = write(tmp_path / "map.txt", dumps_coarse_map(f))
        return thin, fat, sf, tf, mf

    def test_coarse_ad(self, tmp_path, outdir, rng):
        thin, fat, sf, tf, mf = self.setup_spaces(tmp_path)
        from coarsek.generators import random_quasi_projection
        p, _ = random_quasi_projection(thin, QuasiParams(0.1, 0.5), rng)
        pf = write(tmp_path / "p.txt", dumps_operator(p))
        assert main(["coarse-ad", sf, tf, mf, pf, "--delta", "0.3",
                     "--r", "0.5", "--out", outdir]) == 0
        fields, table = read_report(outdir, "coarse-ad")
        assert fields["passed"] == "True"
        assert os.path.exists(os.path.join(outdir, "transported.txt"))

    def test_rotation_homotopy_cmd(self, tmp_path, outdir, rng):
        thin, fat, sf, tf, mf = self.setup_spaces(tmp_path)
        from coarsek.generators import random_quasi_projection
        p, _ = random_quasi_projection(thin, QuasiParams(0.1, 0.5), rng)
        pf = write(tmp_path / "p.txt", dumps_operator(p))
        assert main(["rotation-homotopy", sf, tf, mf, pf, "--delta", "0.3",
                     "--epsilon", "0.1", "--r", "0.5", "--out", outdir]) == 0
        fields, _ = read_report(outdir, "rotation-homotopy")
        assert fields["passed"] == "True"
        # the probe alone samples 8 steps, so the certificate reaches t = 1
        assert int(fields["samples"]) >= 9
        assert os.path.exists(os.path.join(outdir, "certificate.txt"))

    def test_coarse_ad_reads_r_but_not_epsilon(self, tmp_path, outdir, rng):
        thin, fat, sf, tf, mf = self.setup_spaces(tmp_path)
        from coarsek.generators import random_quasi_projection
        p, _ = random_quasi_projection(thin, QuasiParams(0.1, 0.5), rng)
        pf = write(tmp_path / "p.txt", dumps_operator(p))
        reports = []
        for eps in ("0.1", "0.3"):
            # a config file is shared by every subcommand, so coarse-ad
            # accepts its epsilon (and ignores it), but not --epsilon
            cfg = write(tmp_path / f"eps-{eps}.cfg", f"epsilon = {eps}\n")
            out = str(tmp_path / f"out-{eps}")
            assert main(["--config", cfg, "coarse-ad", sf, tf, mf, pf, "--delta", "0.3",
                         "--r", "0.5", "--out", out]) == 0
            reports.append(Path(out, "coarse-ad.report.txt").read_bytes())
        assert reports[0] == reports[1]
        assert main(["coarse-ad", sf, tf, mf, pf, "--epsilon", "0.1",
                     "--out", outdir]) == 2
        assert main(["coarse-ad", sf, tf, mf, pf, "--delta", "0.3", "--r", "0",
                     "--out", outdir]) == 3


class TestMvCommands:
    def test_mv_verify_circle(self, tmp_path, outdir):
        cx = write(tmp_path / "circle.txt",
                   "0 1\n1 2\n2 0\n")
        code = main(["mv-verify", cx, "--mesh", "0.05", "--r", "0.02",
                     "--trials", "8", "--seed", "5", "--out", outdir])
        assert code == 0
        fields, table = read_report(outdir, "mv-verify")
        assert fields["passed"] == "True"
        assert float(fields["worst_split_ratio"]) <= 4.0
        assert table

    @pytest.mark.parametrize("knob, value", [("seed", "-1"), ("trials", "0"),
                                             ("trials", "-3")])
    def test_mv_verify_needs_trials_and_a_seed_numpy_takes(self, tmp_path, outdir,
                                                           capsys, knob, value):
        cx = write(tmp_path / "circle.txt", "0 1\n1 2\n2 0\n")
        cfg = write(tmp_path / "knobs.cfg", f"{knob} = {value}\n")
        for argv in (["mv-verify", cx, f"--{knob}", value],
                     ["--config", cfg, "mv-verify", cx]):
            assert main([*argv, "--mesh", "0.5", "--out", outdir]) == 3
            assert capsys.readouterr().err.startswith("FAIL: need trials >= 1 and seed >= 0")
            assert not os.path.exists(os.path.join(outdir, "mv-verify.report.txt"))

    def test_clutching_index_cmd(self, tmp_path, outdir):
        _, space, order = circle_space(16)
        sf = write(tmp_path / "space.txt", dumps_space(space))
        u = shift_unitary(space, order)
        uf = write(tmp_path / "u.txt", dumps_operator(u))
        phi, reg0, _ = circle_cut(space, order)
        cf = write(tmp_path / "cut.txt",
                   "\n".join(f"{v:.17g}" for v in phi.values))
        rf = write(tmp_path / "region.txt",
                   "\n".join(str(int(b)) for b in reg0))
        assert main(["clutching-index", sf, uf, cf, rf, "--out", outdir]) == 0
        fields, _ = read_report(outdir, "clutching-index")
        assert abs(int(fields["index"])) == 1


# the number of input files of each subcommand and the knobs it reads
SUBCOMMANDS = {
    "complex-validate": (1, set()),
    "discretize": (1, {"mesh", "fiber"}),
    "op-prop": (2, set()),
    "quasi-check": (2, {"epsilon", "r", "parity"}),
    "k0-points": (2, {"epsilon", "r"}),
    "certify-homotopy": (2, set()),
    "coarse-ad": (4, {"r", "delta"}),
    "rotation-homotopy": (4, {"epsilon", "r", "delta"}),
    "mv-verify": (1, {"mesh", "fiber", "r", "trials", "seed"}),
    "clutching-index": (4, set()),
    "path-trim": (2, {"r"}),
}


class TestSubcommandArguments:
    """Each subcommand takes its input files, the knobs it reads and --out."""

    @pytest.mark.parametrize("command, knob", [
        (command, knob) for command, (_, reads) in SUBCOMMANDS.items()
        for knob in KNOB_DEFAULTS if knob not in reads | {"out"}])
    def test_unread_knob_flag_exits_2(self, tmp_path, outdir, capsys, command, knob):
        files = [str(tmp_path / f"in-{i}.txt") for i in range(SUBCOMMANDS[command][0])]
        assert main([command, *files, f"--{knob}", str(KNOB_DEFAULTS[knob]),
                     "--out", outdir]) == 2
        assert f"unrecognized arguments: --{knob}" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(outdir, f"{command}.report.txt"))

    @pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
    def test_help_lists_exactly_its_knobs(self, capsys, command):
        assert main([command, "--help"]) == 0
        flags = set(re.findall(r"--(\w+)", capsys.readouterr().out))
        assert flags == SUBCOMMANDS[command][1] | {"help", "out"}


class TestReportAndConfig:
    def test_merge_reports(self, tmp_path, outdir):
        cx = write(tmp_path / "complex.txt", "0 1\n")
        main(["complex-validate", cx, "--out", outdir])
        main(["discretize", cx, "--mesh", "0.5", "--out", outdir])
        r1 = os.path.join(outdir, "complex-validate.report.txt")
        r2 = os.path.join(outdir, "discretize.report.txt")
        assert main(["report", r1, r2, "--out", outdir]) == 0
        merged = Path(outdir, "merged.report.txt").read_text()
        assert "## complex-validate.report.txt" in merged
        assert merged.index("complex-validate") < merged.index("discretize")

    def test_empty_report_is_usage_error(self, outdir):
        assert main(["report", "--out", outdir]) == 2

    def test_config_file_with_flag_override(self, tmp_path, outdir):
        cx = write(tmp_path / "complex.txt", "0 1\n")
        cfg = write(tmp_path / "knobs.cfg", "mesh = 2.0\nfiber = 3\n")
        assert main(["--config", cfg, "discretize", str(cx),
                     "--mesh", "0.5", "--out", outdir]) == 0
        fields, _ = read_report(outdir, "discretize")
        # flag beats config for mesh; config supplies fiber
        assert float(fields["mesh"]) == 0.5
        from coarsek.serialize import loads_space
        space = loads_space(Path(outdir, "space.txt").read_text())
        assert (space.internal_dims == 3).all()

    def test_determinism_bit_identical(self, tmp_path):
        cx = write(tmp_path / "circle.txt", "0 1\n1 2\n2 0\n")
        outs = []
        for sub in ("a", "b"):
            out = str(tmp_path / sub)
            assert main(["mv-verify", str(cx), "--mesh", "0.05",
                         "--r", "0.02", "--trials", "6", "--seed", "11",
                         "--out", out]) == 0
            outs.append(Path(out, "mv-verify.report.txt").read_bytes())
        assert outs[0] == outs[1]

    def test_console_entry_point(self, tmp_path):
        cx = write(tmp_path / "complex.txt", "0 1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "coarsek.cli", "complex-validate",
             str(cx), "--out", str(tmp_path / "o")],
            capture_output=True, text=True)
        assert proc.returncode == 0


class TestStrictInputs:
    """Malformed input exits 2 (parse) or 3 (precondition) with a FAIL:
    line on stderr and no traceback."""

    @staticmethod
    def _files(tmp_path):
        d = np.abs(np.subtract.outer(np.arange(3.0), np.arange(3.0)))
        space = SampledSpace.from_distance_matrix(d, internal_dims=[1, 2, 1])
        p = FiniteOperator(space, np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex))
        q = FiniteOperator(space, np.diag([0.99, 0.0, 1.0, 0.0]).astype(complex))
        from coarsek.serialize import dumps_certificate
        texts = {
            "space": dumps_space(space),
            "operator": dumps_operator(p),
            "certificate": dumps_certificate(
                interpolation_certificate(p, q, QuasiParams(0.2, 1.5))),
            "map": dumps_coarse_map(CoarseMap.identity(space)),
            "path": dumps_path(PathOperator([1.0, 2.0], [p, q])),
        }
        return {k: write(tmp_path / f"{k}.txt", t) for k, t in texts.items()}

    COMMANDS = {
        "space": ("op-prop", ["space", "operator"]),
        "operator": ("op-prop", ["space", "operator"]),
        "certificate": ("certify-homotopy", ["space", "certificate"]),
        "map": ("coarse-ad", ["space", "space", "map", "operator"]),
        "path": ("path-trim", ["space", "path"]),
    }

    @pytest.mark.parametrize("kind", sorted(COMMANDS))
    def test_every_truncation_exits_2(self, tmp_path, outdir, capsys, kind):
        files = self._files(tmp_path)
        command, inputs = self.COMMANDS[kind]
        assert main([command, *(files[i] for i in inputs),
                     "--out", outdir]) == 0
        with open(files[kind], encoding="utf-8") as fh:
            lines = fh.readlines()
        for k in range(len(lines)):
            files[kind] = write(tmp_path / f"cut-{k}.txt", "".join(lines[:k]))
            capsys.readouterr()
            code = main([command, *(files[i] for i in inputs),
                         "--out", outdir])
            assert code == 2, f"{kind} cut after {k} lines exited {code}"
            assert capsys.readouterr().err.startswith("FAIL: line ")

    @staticmethod
    def _edited_distances(tmp_path, edits):
        """A 5-sample edge space file with the ``(i, j) -> token`` distance
        edits, and an operator file naming that edited text by its hash, so
        only the distances can be at fault."""
        space = discretize(build_complex([(0, 1)]), 0.5)
        rows = dumps_space(space).splitlines()
        at = rows.index("dist:") + 1
        for (i, j), token in edits.items():
            row = rows[at + i].split()
            row[j] = token
            rows[at + i] = " ".join(row)
        text = "\n".join(rows) + "\n"
        op = dumps_operator(FiniteOperator(space, np.ones((5, 5), dtype=complex)))
        return (write(tmp_path / "space.txt", text),
                write(tmp_path / "op.txt", op.replace(
                    space_hash(space), hashlib.sha256(text.encode()).hexdigest()[:16])))

    @pytest.mark.parametrize("command", ["op-prop", "quasi-check"])
    @pytest.mark.parametrize("bad", ["nan", "-5"])
    def test_nan_or_negative_distance_exits_2(self, tmp_path, outdir, capsys,
                                              command, bad):
        sf, opf = self._edited_distances(tmp_path, {(0, 2): bad, (2, 0): bad})
        assert main([command, sf, opf, "--out", outdir]) == 2
        assert capsys.readouterr().err.startswith("FAIL: ")

    @pytest.mark.parametrize("edit, error", [
        (("mesh: none", "mesh: -1"), "line 2: mesh -1 is not finite and positive"),
        (("\n2 2 1 1\n", "\n2 2 nan 1\n"), "line 6: coordinates (nan,) are not finite"),
        (("\n2 2 1 1\n", "\n2 0,2 1 1\n"), "line 6: 1 coordinates for 2 carrier vertices"),
    ])
    def test_malformed_mesh_or_sample_exits_2(self, tmp_path, outdir, capsys, edit, error):
        files = self._files(tmp_path)
        text = Path(files["space"]).read_text(encoding="utf-8")
        assert edit[0] in text
        write(tmp_path / "space.txt", text.replace(*edit))
        assert main(["op-prop", files["space"], files["operator"], "--out", outdir]) == 2
        assert capsys.readouterr().err.startswith(f"FAIL: {error}")

    def test_asymmetric_distance_exits_2(self, tmp_path, outdir, capsys):
        # d(1, 0) stays pi/2 and d(0, 1) is 5e-6 larger, relatively
        sf, opf = self._edited_distances(tmp_path, {(0, 1): repr(np.pi / 2 * (1 + 5e-6))})
        assert main(["op-prop", sf, opf, "--out", outdir]) == 2
        assert capsys.readouterr().err.startswith("FAIL: ")

    def test_empty_times_in_path(self, tmp_path, outdir, capsys):
        files = self._files(tmp_path)
        text = Path(files["path"]).read_text(encoding="utf-8")
        start = text.index("times:")
        bad = write(tmp_path / "bad.txt",
                    text[:start] + "times:" + text[text.index("\n", start):])
        assert main(["path-trim", files["space"], bad, "--out", outdir]) == 2
        assert capsys.readouterr().err.startswith("FAIL: line 2: ")

    @pytest.mark.parametrize("edits, error", [
        ({"times": "1 nan 3"}, "times must be finite and strictly increasing"),
        ({"times": "1 2 inf", "horizon": "inf"},
         "times must be finite and strictly increasing"),
        ({"modulus": "nan"}, "recorded modulus nan is not a finite bound"),
        ({"modulus": "inf"}, "recorded modulus inf is not a finite bound"),
    ])
    def test_non_finite_path_exits_3_and_writes_nothing(self, tmp_path, outdir, capsys,
                                                        edits, error):
        files = self._files(tmp_path)
        space = loads_space(Path(files["space"]).read_text(encoding="utf-8"))
        p = FiniteOperator(space, np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex))
        lines = dumps_path(PathOperator([1.0, 2.0, 3.0], [p, 0.99 * p, 0.99 * p])
                           ).splitlines()
        for key, value in edits.items():
            at = next(i for i, line in enumerate(lines) if line.startswith(f"{key}:"))
            lines[at] = f"{key}: {value}"
        bad = write(tmp_path / "bad.txt", "\n".join(lines) + "\n")
        assert main(["path-trim", files["space"], bad, "--r", "5", "--out", outdir]) == 3
        assert capsys.readouterr().err.startswith(f"FAIL: {error}")
        assert not os.path.exists(os.path.join(outdir, "trimmed-path.txt"))

    def test_input_that_is_not_utf8(self, tmp_path, outdir, capsys):
        cx = tmp_path / "complex.txt"
        cx.write_bytes(b"0 1\n\xff\xfe\n")
        assert main(["complex-validate", str(cx), "--out", outdir]) == 2
        assert capsys.readouterr().err.startswith("FAIL: ")

    def test_input_path_that_is_a_directory(self, tmp_path, outdir, capsys):
        assert main(["complex-validate", str(tmp_path), "--out", outdir]) == 2
        assert capsys.readouterr().err.startswith("FAIL: ")

    def test_bad_config_value(self, tmp_path, outdir, capsys):
        cx = write(tmp_path / "complex.txt", "0 1\n")
        cfg = write(tmp_path / "knobs.cfg", "# knobs\nmesh = 0.5\nepsilon = abc\n")
        assert main(["--config", cfg, "complex-validate", cx,
                     "--out", outdir]) == 2
        assert capsys.readouterr().err.startswith("FAIL: config line 3: ")

    @pytest.mark.parametrize("raw", ["3.7", "1e3"])
    def test_config_value_typed_like_the_flag(self, tmp_path, outdir, capsys, raw):
        # --trials takes an int, so the config file's trials does too, even
        # for a subcommand that does not read it
        cx = write(tmp_path / "complex.txt", "0 1\n")
        assert main(["mv-verify", cx, "--trials", raw, "--out", outdir]) == 2
        assert f"--trials: invalid int value: '{raw}'" in capsys.readouterr().err
        cfg = write(tmp_path / "knobs.cfg", f"trials = {raw}\n")
        assert main(["--config", cfg, "complex-validate", cx, "--out", outdir]) == 2
        assert capsys.readouterr().err.startswith("FAIL: config line 1: bad trials")

    def _quasi_check_inputs(self, tmp_path):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        space = SampledSpace.from_distance_matrix(d)
        one = FiniteOperator(space, np.eye(2, dtype=complex))  # passes either parity
        return [write(tmp_path / "space.txt", dumps_space(space)),
                write(tmp_path / "one.txt", dumps_operator(one))]

    @pytest.mark.parametrize("line", ["parity = foo", "parity = Even"])
    def test_config_choice_checked_like_the_flag(self, tmp_path, outdir, capsys,
                                                 line):
        files = self._quasi_check_inputs(tmp_path)
        assert main(["quasi-check", *files, "--parity", "foo",
                     "--out", outdir]) == 2
        capsys.readouterr()
        cfg = write(tmp_path / "knobs.cfg", f"r = 0.5\n{line}\n")
        assert main(["--config", cfg, "quasi-check", *files,
                     "--out", outdir]) == 2
        assert capsys.readouterr().err.startswith("FAIL: config line 2: bad parity")

    def test_config_choice_accepted(self, tmp_path, outdir):
        files = self._quasi_check_inputs(tmp_path)
        cfg = write(tmp_path / "knobs.cfg", "parity = odd\nr = 0.5\n")
        assert main(["--config", cfg, "quasi-check", *files,
                     "--out", outdir]) == 0
        fields, _ = read_report(outdir, "quasi-check")
        assert fields["parity"] == "odd"

    @pytest.mark.parametrize("flag", ["--tau", "--steps"])
    def test_removed_knob_flags_exit_2(self, tmp_path, outdir, flag):
        # the support threshold is DEFAULT_TAU and the step count the
        # certificate's own, for every verdict
        files = self._quasi_check_inputs(tmp_path)
        assert main(["quasi-check", *files, flag, "0", "--out", outdir]) == 2

    @pytest.mark.parametrize("flag, value", [("--s", "3"), ("--t", "3"),
                                             ("--eps", "0.1"), ("--par", "odd")],
                             ids=["--s", "--t", "--eps", "--par"])
    def test_flag_prefixes_exit_2(self, tmp_path, outdir, flag, value):
        # a prefix would set whichever knob it alone matches: --s the seed
        files = self._quasi_check_inputs(tmp_path)
        assert main(["quasi-check", *files, flag, value, "--out", outdir]) == 2
        assert not os.path.exists(os.path.join(outdir, "quasi-check.report.txt"))

    def test_config_flag_prefix_exits_2(self, tmp_path, outdir):
        files = self._quasi_check_inputs(tmp_path)
        cfg = write(tmp_path / "knobs.cfg", "r = 0.5\n")
        assert main(["--conf", cfg, "quasi-check", *files, "--out", outdir]) == 2

    @pytest.mark.parametrize("r", ["nan", "0", "-1"])
    def test_r_that_is_not_positive_exits_3(self, tmp_path, outdir, capsys, r):
        files = self._quasi_check_inputs(tmp_path)
        assert main(["quasi-check", *files, "--r", r, "--out", outdir]) == 3
        assert capsys.readouterr().err == "FAIL: r must be positive\n"
        assert not os.path.exists(os.path.join(outdir, "quasi-check.report.txt"))

    @pytest.mark.parametrize("line", ["epsilonn = 0.3", "= 0.3", "Epsilon = 0.3",
                                      "tau = 0.5", "steps = 0"])
    def test_unknown_config_key(self, tmp_path, outdir, capsys, line):
        files = self._quasi_check_inputs(tmp_path)
        cfg = write(tmp_path / "knobs.cfg", f"# knobs\n{line}\n")
        assert main(["--config", cfg, "quasi-check", *files,
                     "--out", outdir]) == 2
        assert capsys.readouterr().err.startswith("FAIL: config line 2: unknown key")
        assert not os.path.exists(os.path.join(outdir, "quasi-check.report.txt"))


class TestClutchingIndexInputs:
    @pytest.fixture()
    def inputs(self, tmp_path):
        _, space, order = circle_space(16)
        phi, region, _ = circle_cut(space, order)
        return {
            "space": write(tmp_path / "space.txt", dumps_space(space)),
            "u": write(tmp_path / "u.txt",
                       dumps_operator(shift_unitary(space, order))),
            "cut": "\n".join(f"{v:.17g}" for v in phi.values),
            "region": "\n".join(str(int(b)) for b in region),
        }

    def run(self, tmp_path, outdir, inputs, cut, region):
        cf = write(tmp_path / "cut.txt", cut)
        rf = write(tmp_path / "region.txt", region)
        return main(["clutching-index", inputs["space"], inputs["u"], cf, rf,
                     "--out", outdir])

    def test_non_numeric_cut_token(self, tmp_path, outdir, inputs, capsys):
        cut = inputs["cut"].replace("\n", "\nx\n", 1)
        assert self.run(tmp_path, outdir, inputs, cut, inputs["region"]) == 2
        assert capsys.readouterr().err.startswith("FAIL: line 2: ")

    def test_non_numeric_region_token(self, tmp_path, outdir, inputs, capsys):
        region = inputs["region"] + "\nyes"
        assert self.run(tmp_path, outdir, inputs, inputs["cut"], region) == 2
        assert capsys.readouterr().err.startswith("FAIL: line ")

    def test_nan_cut_value(self, tmp_path, outdir, inputs, capsys):
        cut = "nan\n" + inputs["cut"].split("\n", 1)[1]
        assert self.run(tmp_path, outdir, inputs, cut, inputs["region"]) == 3
        assert "cut values must lie in [0, 1]" in capsys.readouterr().err

    def test_region_of_the_wrong_length(self, tmp_path, outdir, inputs,
                                        capsys):
        region = inputs["region"] + "\n1"
        assert self.run(tmp_path, outdir, inputs, inputs["cut"], region) == 3
        assert "region" in capsys.readouterr().err
