"""Batch command-line front door.

One subcommand per invocation; numeric knobs come from flags or from a
``key = value`` config file (flags win).  Outputs are deterministic for a
fixed seed and are written atomically into the output directory.  Exit
codes: 0 success, 1 verification failure (with a FAIL: line), 2 parse
errors, 3 precondition violations.

Every subcommand but ``report`` is a ``COMMANDS`` handler, declared by its
signature: files positional, knobs keyword-only, a flag each, plus ``--out``.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
from typing import NamedTuple

from . import coarse, controlled, mv, paths, serialize
from .errors import CoarsekError, DomainError, MalformedInputError, VerificationFailure
from .geometry import discretize
from .operator import opnorm, propagation, support

KNOB_DEFAULTS = {
    "epsilon": 0.1,
    "r": 0.25,
    "delta": 0.1,
    "mesh": 0.5,
    "seed": 0,
    "trials": 100,
    "fiber": 1,
    "parity": "even",
    "out": ".",
}
CHOICES = {"parity": ("even", "odd")}  # knobs with a closed set of values


# Exit code of an error: the first row whose type matches.
EXIT_CODES = ((MalformedInputError, 2), (OSError, 2),
              (UnicodeDecodeError, 2), (VerificationFailure, 1), (CoarsekError, 3))


class Outcome(NamedTuple):
    """Report fields (after ``command``), an optional table, and the failure
    message of a rejected verdict."""

    fields: dict
    table: list = None
    failure: str = None


def _load(loads, path, *context):
    """Parse the file at ``path`` with a ``serialize.loads_*`` reader."""
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read(), *context)


def _write(out_dir, name, text):
    os.makedirs(out_dir, exist_ok=True)
    serialize.atomic_write(os.path.join(out_dir, name), text)


def _load_operator(space_file, operator_file):
    space = _load(serialize.loads_space, space_file)
    return _load(serialize.loads_operator, operator_file, space)


def _complex_validate(complex_file):
    cx = _load(serialize.loads_complex, complex_file)
    return Outcome({"vertices": len(cx.vertices),
                    "simplices": len(cx.simplices),
                    "dimension": cx.dimension,
                    "face_closed": cx.faces_closed()})


def _discretize(complex_file, *, mesh, fiber, out):
    cx = _load(serialize.loads_complex, complex_file)
    space = discretize(cx, mesh, fiber_dim=fiber)
    text = serialize.dumps_space(space)
    _write(out, "space.txt", text)
    return Outcome({"mesh": mesh, "points": len(space),
                    "total_dim": space.total_dim,
                    "space_hash": serialize.digest(text)})


def _op_prop(space_file, operator_file):
    op = _load_operator(space_file, operator_file)
    prop = propagation(op)
    return Outcome({"support_pairs": int(support(op).sum()),
                    "propagation": prop, "opnorm": opnorm(op)})


def _quasi_check(space_file, operator_file, *, epsilon, r, parity):
    op = _load_operator(space_file, operator_file)
    ok, wit = controlled.is_quasi(op, parity, controlled.QuasiParams(epsilon, r))
    return Outcome({"parity": parity, "passed": ok, **wit},
                   failure=None if ok else f"{parity} quasi-test failed: {wit}")


def _k0_points(space_file, operator_file, *, epsilon, r):
    op = _load_operator(space_file, operator_file)
    classes = controlled.k0_points(op, controlled.QuasiParams(epsilon, r))
    return Outcome({"classes": " ".join(str(c) for c in classes)})


def _certify_homotopy(space_file, certificate_file):
    space = _load(serialize.loads_space, space_file)
    cert = _load(serialize.loads_certificate, certificate_file, space)
    ok, rep = controlled.verify_certificate(cert)
    keys = ("samples", "worst_defect", "worst_propagation", "worst_step_margin")
    return Outcome({"passed": ok, **{k: rep[k] for k in keys}},
                   failure=None if ok else f"certificate rejected: {rep['failures'][:3]}")


def _map_and_operator(source_space, target_space, map_file, operator_file):
    src = _load(serialize.loads_space, source_space)
    tgt = _load(serialize.loads_space, target_space)
    f = _load(serialize.loads_coarse_map, map_file, src, tgt)
    return f, _load(serialize.loads_operator, operator_file, src)


def _coarse_ad(source_space, target_space, map_file, operator_file, *, r, delta, out):
    f, op = _map_and_operator(source_space, target_space, map_file, operator_file)
    if not r > 0:
        raise DomainError("r must be positive")
    transported = coarse.ad(coarse.delta_cover(f, delta), op)
    omega = coarse.expansion_function(f, r)
    bound = omega + 2 * delta
    prop_in = propagation(op)
    prop_out = propagation(transported)
    _write(out, "transported.txt", serialize.dumps_operator(transported))
    ok = not (prop_in < r) or prop_out < bound
    return Outcome({"expansion": omega, "propagation_in": prop_in,
                    "propagation_out": prop_out, "bound": bound,
                    "passed": ok},
                   table=[("propagation", prop_out, bound, bound - prop_out)],
                   failure=None if ok else "transported propagation exceeds the bound")


def _rotation_homotopy(source_space, target_space, map_file, operator_file, *,
                       epsilon, r, delta, out):
    f, op = _map_and_operator(source_space, target_space, map_file, operator_file)
    v1 = coarse.delta_cover(f, delta)
    v2 = coarse.delta_cover(f, delta, bias="pack-high")
    # the builder's own judgement: it returns only certificates that pass it
    cert, measured = coarse._rotation_certificate(
        v1, v2, op, controlled.QuasiParams(epsilon, r))
    ok, rep = controlled.judge_certificate(cert, measured, cert.step_bounds)
    _write(out, "certificate.txt", serialize.dumps_certificate(cert))
    keys = ("samples", "worst_defect", "worst_propagation")
    return Outcome({"passed": ok, **{k: rep[k] for k in keys},
                    "ambient_r": cert.params.r})


def _mv_verify(complex_file, *, mesh, fiber, r, trials, seed):
    cx = _load(serialize.loads_complex, complex_file)
    space = discretize(cx, mesh, fiber_dim=fiber)
    pair = mv.MvPair.from_decomposition(space, cx, r=r)
    rep = mv.verify_weak_mv_pair(space, pair, trials=trials, seed=seed)
    keys = ("passed", "degree", "worst_split_ratio", "worst_cia_ratio",
            "worst_reconstruction", "coercity_bound", "trials")
    return Outcome({k: rep[k] for k in keys}, table=rep["table"],
                   failure=None if rep["passed"] else
                   "weak decomposition axioms violated; see report")


def _clutching_index(space_file, operator_file, cut_file, region_file):
    op = _load_operator(space_file, operator_file)
    phi = mv.CutFunction(_load(serialize.loads_numbers, cut_file))
    region = _load(serialize.loads_numbers, region_file, int) != 0
    return Outcome({"index": mv.local_index(op, phi, region)})


def _path_trim(space_file, path_file, *, r, out):
    space = _load(serialize.loads_space, space_file)
    path = _load(serialize.loads_path, path_file, space)
    n = paths.eventual_propagation(path, r)
    trimmed = paths.trim(path, n)
    _write(out, "trimmed-path.txt", serialize.dumps_path(trimmed))
    return Outcome({"trim_time": n, "samples_left": len(trimmed),
                    "horizon": trimmed.horizon})


COMMANDS = {
    "complex-validate": _complex_validate,
    "discretize": _discretize,
    "op-prop": _op_prop,
    "quasi-check": _quasi_check,
    "k0-points": _k0_points,
    "certify-homotopy": _certify_homotopy,
    "coarse-ad": _coarse_ad,
    "rotation-homotopy": _rotation_homotopy,
    "mv-verify": _mv_verify,
    "clutching-index": _clutching_index,
    "path-trim": _path_trim,
}


def _arguments(handler):
    """Names of the handler's positional (files) and keyword-only (knobs) parameters."""
    params = inspect.signature(handler).parameters.values()
    return ([p.name for p in params if p.kind is p.POSITIONAL_OR_KEYWORD],
            [p.name for p in params if p.kind is p.KEYWORD_ONLY])


def build_parser():
    # no abbreviations: a flag prefix would set whichever knob it alone matches
    top = argparse.ArgumentParser(
        prog="coarsek", allow_abbrev=False,
        description="finite-matrix propagation-controlled operator toolbox")
    top.add_argument("--config", help="key = value defaults file")
    sub = top.add_subparsers(dest="command", required=True)
    for name, handler in COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        files, knobs = _arguments(handler)
        for pos in files:
            p.add_argument(pos)
        for key in dict.fromkeys([*knobs, "out"]):
            p.add_argument(f"--{key}", type=type(KNOB_DEFAULTS[key]),
                           choices=CHOICES.get(key))
    rp = sub.add_parser("report", help="merge report files", allow_abbrev=False)
    rp.add_argument("inputs", nargs="*")
    rp.add_argument("--out")
    return top


def resolve_knobs(args):
    """Defaults, then the config file's values (checked as flags are), then flags."""
    knobs = dict(KNOB_DEFAULTS)
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            for ln, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, eq, raw = (part.strip() for part in line.partition("="))
                if not eq or key not in KNOB_DEFAULTS:
                    raise MalformedInputError(f"config line {ln}: " + (
                        f"unknown key {key!r}" if eq else "expected key = value"))
                try:
                    knobs[key] = type(KNOB_DEFAULTS[key])(raw)
                    if key in CHOICES and knobs[key] not in CHOICES[key]:
                        raise ValueError(raw)
                except (ValueError, OverflowError) as exc:
                    raise MalformedInputError(
                        f"config line {ln}: bad {key} value {raw!r}") from exc
    for key in KNOB_DEFAULTS:
        if getattr(args, key, None) is not None:
            knobs[key] = getattr(args, key)
    return knobs


def _merge_reports(inputs, out_dir):
    if not inputs:
        raise MalformedInputError("report needs at least one input")
    sections = [(os.path.basename(path), *_load(serialize.loads_report, path))
                for path in inputs]
    _write(out_dir or ".", "merged.report.txt",
           serialize.dumps_merged_report(sections))
    return 0


def run(args):
    knobs = resolve_knobs(args)
    if args.command not in COMMANDS:
        return _merge_reports(args.inputs, args.out)
    handler = COMMANDS[args.command]
    files, names = _arguments(handler)
    fields, table, failure = handler(*(getattr(args, name) for name in files),
                                     **{key: knobs[key] for key in names})
    _write(knobs["out"], f"{args.command}.report.txt",
           serialize.dumps_report({"command": args.command, **fields}, table))
    if failure:
        print(f"FAIL: {failure}")
        return 1
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return run(args)
    except tuple(kind for kind, _ in EXIT_CODES) as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
