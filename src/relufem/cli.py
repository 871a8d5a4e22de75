"""Command line entry point.

Subcommands wrap one library operation each; inputs and outputs are the
JSON documents defined by the owning modules. Exit codes: 2 for unreadable
or malformed inputs or arguments (--epsilon must be finite and > 0), 3 for
mesh validation failures, 4 for compilation errors, 5 for verification
failures; 0 means every requested check passed.
`tnn-verify` checks a tensor net on every box of its breakpoint grid, not
on samples (relufem.verify.check_tensor_net), and prints max_deviation,
rounding_bound, tolerance and passed; its --samples and --seed are
accepted and ignored, so older invocations keep working.
All commands are deterministic given their flags and seed, and identical
invocations on one machine write byte-identical files. A `tnn-build` of
an order-2 tensor that reaches the full SVD (one of high numerical rank)
also depends on the BLAS thread count; one factored on a sketch rung does
not.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import docio, networks
from .errors import (CompileError, DocumentError, MeshError, ReluFemError,
                     VerifyError)
from .compiler import compile_compact_support, compile_weak_representation
from .mesh import PolytopeMesh, freudenthal_mesh, validate_mesh
from .pwl import PiecewiseLinear
from .tensorfe import TensorFE, compile_tnn
from .verify import (check_counts, check_tensor_net, check_weak_representation,
                     convergence_experiment)

EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_COMPILE = 4
EXIT_VERIFY = 5

TARGETS = {
    "sinpi": lambda x: float(np.prod(np.sin(np.pi * np.asarray(x)))),
    "quadratic": lambda x: float(np.sum(np.asarray(x) ** 2)),
    "affine": lambda x: float(1.0 + np.sum(np.asarray(x) * 0.75)),
    "exp": lambda x: float(math.exp(np.sum(np.asarray(x)) / 2.0)),
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _resolutions(text: str) -> list[int]:
    try:
        Ns = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        Ns = []
    if not Ns:
        raise argparse.ArgumentTypeError(
            f"expected comma separated integers, got {text!r}")
    if len(Ns) < 2 or Ns[0] < 1 or any(a >= b for a, b in zip(Ns, Ns[1:])):
        raise argparse.ArgumentTypeError(
            f"expected at least two strictly increasing positive "
            f"resolutions, to fit a slope, got {text!r}")
    return Ns


def _norm_exponent(text: str) -> float:
    p = float(text)
    if not 1.0 <= p < math.inf:
        raise argparse.ArgumentTypeError(f"must satisfy 1 <= p < inf, got {text!r}")
    return p


def _tolerance(text: str) -> float:
    tol = float(text)
    if not 0.0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(f"must satisfy 0 <= tol < inf, got {text!r}")
    return tol


def _epsilon(text: str) -> float:
    eps = float(text)
    if not 0.0 < eps < math.inf:
        raise argparse.ArgumentTypeError(
            f"must satisfy 0 < epsilon < inf, got {text!r}")
    return eps


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="relufem",
        description="Compile finite element functions into exact-size ReLU "
                    "networks and verify them numerically.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, mesh=True, function=True, epsilon=True, output=False):
        if mesh:
            p.add_argument("--mesh", required=True, help="mesh JSON file")
        if function:
            p.add_argument("--function", required=True,
                           help="function JSON file")
        if epsilon:
            p.add_argument("--epsilon", type=_epsilon, required=True)
        if output:
            p.add_argument("--output", required=True, help="output file")
        p.add_argument("--seed", type=_seed, default=0)
        p.add_argument("--samples", type=_positive_int, default=200)

    p = sub.add_parser("build", help="validate, compile, self-check, write")
    add_common(p, output=True)
    p.add_argument("--output-bias", action="store_true",
                   help="fold the -R constant into an output bias")
    p.add_argument("--compact-support", action="store_true",
                   help="build the compactly supported variant")

    p = sub.add_parser("verify", help="check a network file against a function")
    add_common(p)
    p.add_argument("--network", required=True)
    p.add_argument("--compact-support", action="store_true")

    p = sub.add_parser("counts", help="check layer sizes against mesh counts")
    p.add_argument("--mesh", required=True)
    p.add_argument("--network", required=True)

    p = sub.add_parser("freudenthal", help="write a standard simplicial mesh")
    p.add_argument("--n", type=_positive_int, required=True, help="dimension")
    p.add_argument("--N", type=_positive_int, required=True, help="grid resolution")
    p.add_argument("--output", required=True)

    p = sub.add_parser("convergence", help="mesh refinement error study")
    p.add_argument("--n", type=_positive_int, default=2)
    p.add_argument("--Ns", type=_resolutions, default="2,4,8,16",
                   help="comma separated resolutions")
    p.add_argument("--p", type=_norm_exponent, default=2.0)
    p.add_argument("--target", choices=sorted(TARGETS), default="sinpi")
    p.add_argument("--samples", type=_positive_int, default=100_000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--output", help="CSV output path")

    p = sub.add_parser("tnn-build", help="compile a tensor FE function")
    p.add_argument("--function", required=True, help="tensor FE JSON file")
    p.add_argument("--tol", type=_tolerance, default=1e-12)
    p.add_argument("--whole-space-rank", action="store_true",
                   help="pad the rank up to the matricization bound")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--output", required=True)

    p = sub.add_parser("tnn-verify", help="check a tensor network file on "
                       "every box of its breakpoint grid")
    p.add_argument("--function", required=True)
    p.add_argument("--network", required=True)
    p.add_argument("--samples", type=_positive_int, default=10_000,
                   help="ignored: the check is exhaustive, not sampled")
    p.add_argument("--seed", type=_seed, default=0,
                   help="ignored: the check is exhaustive, not sampled")

    p = sub.add_parser("eval", help="evaluate a network file on points")
    p.add_argument("--network", required=True)
    p.add_argument("--points", required=True, help="JSON points file")

    return ap


def _load_doc(path) -> dict:
    try:
        return docio.load(path)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc


def _load_mesh(path) -> PolytopeMesh:
    return PolytopeMesh.from_doc(_load_doc(path))


def cmd_build(args) -> int:
    mesh = _load_mesh(args.mesh)
    v = PiecewiseLinear.from_doc(_load_doc(args.function), mesh)
    report = validate_mesh(mesh, samples=max(args.samples * 100, 10_000),
                           seed=args.seed)
    if not report.ok:
        for issue in report.issues:
            print(f"validation: {issue}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.compact_support:
        if args.output_bias:
            raise CompileError(
                "--output-bias is not available with --compact-support "
                "(the constant row is replaced by the hull bump)")
        net = compile_compact_support(mesh, v, args.epsilon)
    else:
        net = compile_weak_representation(mesh, v, args.epsilon,
                                          use_output_bias=args.output_bias)
    rep = check_weak_representation(net, v, mesh, args.epsilon,
                                    samples_per_cell=args.samples,
                                    seed=args.seed,
                                    compact=args.compact_support)
    counts = check_counts(mesh, net)
    networks.save(net, args.output)
    hi, hb, nt = mesh.counts()
    print(f"h1={net.h1} h2={net.h2} Hi={hi} Hb={hb} NT={nt}")
    if not rep.passed or not counts.passed:
        sys.stderr.write(rep.as_text())
        sys.stderr.write(counts.as_text())
        return EXIT_VERIFY
    return 0


def cmd_verify(args) -> int:
    mesh = _load_mesh(args.mesh)
    v = PiecewiseLinear.from_doc(_load_doc(args.function), mesh)
    net = networks.ReluNet2.from_doc(_load_doc(args.network))
    rep = check_weak_representation(net, v, mesh, args.epsilon,
                                    samples_per_cell=args.samples,
                                    seed=args.seed,
                                    compact=args.compact_support)
    sys.stdout.write(rep.as_text())
    return 0 if rep.passed else EXIT_VERIFY


def cmd_counts(args) -> int:
    mesh = _load_mesh(args.mesh)
    net = networks.ReluNet2.from_doc(_load_doc(args.network))
    res = check_counts(mesh, net)
    sys.stdout.write(res.as_text())
    return 0 if res.passed else EXIT_VERIFY


def cmd_freudenthal(args) -> int:
    mesh = freudenthal_mesh(args.n, args.N)
    mesh.save(args.output)
    hi, hb, nt = mesh.counts()
    print(f"cells={nt} Hi={hi} Hb={hb}")
    return 0


def cmd_convergence(args) -> int:
    table = convergence_experiment(TARGETS[args.target], args.p, args.Ns, args.n,
                                   samples=args.samples, seed=args.seed)
    sys.stdout.write(table.as_text())
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(table.to_csv())
    return 0


def cmd_tnn_build(args) -> int:
    u = TensorFE.from_doc(_load_doc(args.function))
    net = compile_tnn(u, target_tol=args.tol, seed=args.seed,
                      whole_space_rank=args.whole_space_rank)
    networks.save(net, args.output)
    widths = "x".join(str(w) for w in net.widths)
    print(f"rank={net.rank} widths={widths}")
    return 0


def cmd_tnn_verify(args) -> int:
    u = TensorFE.from_doc(_load_doc(args.function))
    net = networks.TensorNet.from_doc(_load_doc(args.network))
    rep = check_tensor_net(u, net)
    sys.stdout.write(rep.as_text())
    return 0 if rep.passed else EXIT_VERIFY


def cmd_eval(args) -> int:
    net = networks.from_doc(_load_doc(args.network))
    doc = _load_doc(args.points)
    X = docio.as_float_array(docio.get(doc, "points"), "points")
    X = np.atleast_2d(X)
    for val in net(X):
        print(repr(float(val)))
    return 0


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built once per process: parse_args leaves it
    as it was."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "build": cmd_build,
        "verify": cmd_verify,
        "counts": cmd_counts,
        "freudenthal": cmd_freudenthal,
        "convergence": cmd_convergence,
        "tnn-build": cmd_tnn_build,
        "tnn-verify": cmd_tnn_verify,
        "eval": cmd_eval,
    }
    try:
        return handlers[args.command](args)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MeshError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except CompileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPILE
    except VerifyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except ReluFemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
