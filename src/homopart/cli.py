"""Command line workbench around the library.

Single-process driver: subcommands generate instances, run the
homogenization pipeline, audit partitions, measure VC dimension and
exercise the tower construction. Every run writes a
``manifest.json`` into the output directory and stamps each emitted
artifact with the manifest's core digest, so an artifact can always
be traced to the exact invocation that produced it and reruns with
an equal manifest reproduce it byte for byte.

Exit status: 0 on success, 1 when an audit or verification fails
(the report still gets written), 2 on usage errors, malformed input
files, inputs that do not fit together and infeasible parameters.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import io as hio
from .auditor import homogeneity_audit, slicewise_vc, vc_dimension
from .errors import CoverageError, FamilyRejectionError
from .generators import FAMILIES, InstanceSpec, generate
from .gowers import (
    build_sequence,
    build_weighted,
    link_certificate,
    refinement_cascade,
    sample_unweighted,
    verify_certificate,
)
from .homogenizer import homogeneous_partition
from .manifest import RunManifest, file_digest
from .partitions import LayeredPartition, PartPartition


class _Run:
    """The manifest protocol of one invocation.

    Built before any work: it digests the inputs (roles with no path
    are left out) and fixes the core digest. ``write`` stamps each
    artifact with that digest, and ``finish`` records the output
    digests and the elapsed time, then writes ``manifest.json``.
    """

    def __init__(self, args, command: str, params: dict, mode: str = "-",
                 inputs=None):
        inputs = {role: path for role, path in (inputs or {}).items() if path}
        self.out = args.out
        # audit and vc take no seed; their manifests record seed 0
        self.manifest = RunManifest(
            command=command, params=params, seed=getattr(args, "seed", 0),
            mode=mode,
            inputs={role: file_digest(path) for role, path in inputs.items()},
        )
        self.digest = self.manifest.digest()
        self.paths = {}
        self.t0 = time.perf_counter()

    def _path(self, name: str) -> str:
        os.makedirs(self.out, exist_ok=True)
        return os.path.join(self.out, name)

    def write(self, name: str, writer, *data) -> None:
        path = self._path(name)
        writer(path, *data, digest=self.digest)
        self.paths[name] = path

    def finish(self) -> None:
        man = self.manifest
        man.outputs = {name: file_digest(p) for name, p in self.paths.items()}
        man.timing = time.perf_counter() - self.t0
        man.write(self._path("manifest.json"))


def _cmd_gen(args) -> int:
    n = tuple(args.n)
    if len(n) == 1:
        n = n * args.k
    spec = InstanceSpec(
        k=len(n), n=n, family=args.family, r=args.r,
        eps_prime=args.eps_prime, seed=args.seed,
    )
    run = _Run(args, "gen", {"family": args.family, "n": list(n), "r": args.r,
                             "eps_prime": args.eps_prime})
    inst = generate(spec)
    run.write("instance.khg", hio.write_khg, inst.h)
    if inst.side_partitions:
        table = {((), side): p for side, p in inst.side_partitions.items()}
        run.write("instance.links", hio.write_links, table, spec.r)
    run.finish()
    print(f"gen {args.family} n={n} edges={inst.h.edge_count} "
          f"exact_links={inst.exact_links}")
    return 0


def _cmd_homogenize(args) -> int:
    eps = args.eps
    # the pipeline reads nothing of a links file; it is still parsed in full
    if args.links:
        hio.read_links(args.links)
    run = _Run(args, "homogenize",
               {"eps": eps, "max_anchors": args.max_anchors},
               inputs={"instance": args.instance, "links": args.links})
    h = hio.read_khg(args.instance)
    partition, _ = homogeneous_partition(
        h, None, eps, args.seed, max_anchors=args.max_anchors,
    )
    audit = homogeneity_audit(h, partition, eps)
    run.write("partition.part", hio.write_part, partition)
    run.write("report.audit", hio.write_audit, audit)
    run.finish()
    verdict = "pass" if audit.passed else "fail"
    print(f"homogenize eps={eps} blocks="
          f"{partition.block_counts()} mass={audit.mass} "
          f"normalized={audit.normalized_mass:.6g} {verdict}")
    return 0 if audit.passed else 1


def _cmd_audit(args) -> int:
    eps = args.eps
    run = _Run(args, "audit", {"eps": eps},
               inputs={"graph": args.graph, "partition": args.partition})
    if args.graph.endswith(".w3g"):
        h = hio.read_w3g(args.graph)
    else:
        h = hio.read_khg(args.graph)
    partition = hio.read_part(args.partition)
    report = homogeneity_audit(h, partition, eps)
    run.write("report.audit", hio.write_audit, report)
    run.finish()
    verdict = "pass" if report.passed else "fail"
    print(f"audit block eps={eps} mass={report.mass} "
          f"normalized={report.normalized_mass:.6g} {verdict}")
    return 0 if report.passed else 1


def _cmd_vc(args) -> int:
    run = _Run(args, "vc", {"cap": args.cap},
               inputs={"instance": args.instance})
    h = hio.read_khg(args.instance)
    rows = [f"vc {h.k}"]
    if h.k == 2:
        dense = h.to_dense()
        left = vc_dimension(dense, cap=args.cap)
        right = vc_dimension(dense.T, cap=args.cap)
        rows.append(f"left {left.dim} {int(left.at_cap)}")
        rows.append(f"right {right.dim} {int(right.at_cap)}")
    elif h.k == 3:
        slicewise = slicewise_vc(h, cap=args.cap)
        for part in range(3):
            rows.append(f"slice {part} {slicewise[part]}")
        rows.append(f"max {slicewise['max']} {int(slicewise['at_cap'])}")
    else:
        raise ValueError(f"vc needs k=2 or k=3 input, got k={h.k}")
    run.write("vc.txt", hio.write_text, "\n".join(rows) + "\n")
    run.finish()
    for row in rows[1:]:
        print(row)
    return 0


def _gowers_params(args):
    mode = args.mode or "toy"
    eps = args.eps if args.eps is not None else 1e-6
    delta = args.delta if args.delta is not None else 0.5
    if mode == "paper":
        return build_sequence(eps, delta, mode="paper", seed=args.seed), mode
    t = args.t if args.t is not None else 3
    growth = args.growth if args.growth is not None else 2
    return build_sequence(
        eps, delta, mode="toy", t=t, growth=growth, s0=args.s0,
        seed=args.seed,
    ), mode


def _gowers_run(args, command: str, mode: str, extra=None,
                inputs=None) -> _Run:
    params = {"t": args.t, "growth": args.growth, "s0": args.s0,
              "eps": args.eps, "delta": args.delta, "n": args.n}
    if extra:
        params.update(extra)
    return _Run(args, command, params, mode, inputs)


def _cmd_gowers_build(args) -> int:
    params, mode = _gowers_params(args)
    run = _gowers_run(args, "gowers-build", mode)
    build = build_weighted(params, args.n)
    lay = build.layering
    run.write("gowers.w3g", hio.write_w3g, build.weighted)
    finest = LayeredPartition([
        lay.a_levels[lay.t], lay.b_levels[lay.t], lay.c_layers,
    ])
    run.write("layering.part", hio.write_part, finest)
    run.finish()
    print(f"gowers build mode={mode} t={params.t} levels={params.levels} "
          f"n={args.n} relaxations={params.relaxations}")
    return 0


def _cmd_gowers_links(args) -> int:
    params, mode = _gowers_params(args)
    run = _gowers_run(args, "gowers-links", mode, extra={"draws": args.draws})
    build = build_weighted(params, args.n)
    table = {}
    kinds = {}
    failures = 0
    for part in range(3):
        for v in range(args.n):
            cert = link_certificate(build, part, v)
            check = verify_certificate(
                build, cert, delta=args.delta, draws=args.draws, seed=args.seed,
            )
            kinds[cert.kind] = kinds.get(cert.kind, 0) + 1
            if not check.ok:
                failures += 1
            others = [q for q in range(3) if q != part]
            for position, other in enumerate(others):
                table[(((part, v),), other)] = cert.partitions[position]
    run.write("certificates.links", hio.write_links, table, max(params.levels))
    run.finish()
    summary = " ".join(f"{kind}={count}" for kind, count in sorted(kinds.items()))
    print(f"gowers links n={3 * args.n} certificates {summary} failures={failures}")
    return 0 if failures == 0 else 1


def _cmd_gowers_sample(args) -> int:
    params, mode = _gowers_params(args)
    run = _gowers_run(args, "gowers-sample", mode,
                      extra={"boxes": args.boxes, "fraction": args.fraction})
    build = build_weighted(params, args.n)
    result = sample_unweighted(
        build.weighted, args.seed, boxes=args.boxes, box_fraction=args.fraction,
    )
    run.write("sampled.khg", hio.write_khg, result.graph)
    run.finish()
    rep = result.report
    print(f"gowers sample boxes={args.boxes} within={rep.n_within}/{args.boxes} "
          f"full_within={rep.full.within}")
    return 0 if rep.full.within else 1


def _cmd_gowers_cascade(args) -> int:
    params, mode = _gowers_params(args)
    run = _gowers_run(args, "gowers-cascade", mode,
                      inputs={"candidate": args.candidate})
    build = build_weighted(params, args.n)
    if args.candidate:
        candidate = hio.read_part(args.candidate)
    else:
        candidate = LayeredPartition([
            PartPartition.trivial(args.n, part=i) for i in range(3)
        ])
    report = refinement_cascade(build, candidate, eps=args.eps)
    rows = [f"cascade eps={report.eps!r} betas={' '.join(repr(b) for b in report.betas)}"]
    n_witnesses = 0
    for level in report.levels:
        n_witnesses += len(level.witnesses)
        rows.append(
            f"level {level.r} beta={level.beta!r} valid={int(level.valid)} "
            f"runnable={int(level.runnable)} refines={level.refines} "
            f"witnesses={len(level.witnesses)}"
        )
        for w in level.witnesses:
            rows.append(
                f"witness level={w.level} side={w.side} s={w.s} u={w.u} "
                f"ell={w.ell} gap={w.gap!r}"
            )
    run.write("cascade.txt", hio.write_text, "\n".join(rows) + "\n")
    run.finish()
    print(f"gowers cascade levels={len(report.levels)} witnesses={n_witnesses}")
    return 0


def _int_at_least(low: int):
    """argparse type: an integer of at least ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {low}, got {text!r}")
        return value
    return parse


_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)


def _fraction(text: str) -> float:
    """argparse type: a number in (0, 1]."""
    try:
        value = float(text)
    except ValueError:
        value = 0.0
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a number in (0, 1], got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=".")
    seeded = argparse.ArgumentParser(add_help=False, parents=[out])
    seeded.add_argument("--seed", type=int, default=0)

    parser = argparse.ArgumentParser(
        prog="homopart",
        description="Workbench for homogeneous partitions of k-partite "
                    "hypergraphs and the tower-type weighted construction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # no prefix matching, so that --eps is not taken for --eps-prime
    p = sub.add_parser("gen", parents=[seeded], allow_abbrev=False,
                       help="generate a seeded instance plus its link table")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--n", type=int, nargs="+", required=True,
                   help="part sizes; a single value applies to every part")
    p.add_argument("--k", type=int, default=3,
                   help="part count when --n gives a single size")
    p.add_argument("--r", type=int, default=3)
    p.add_argument("--eps-prime", type=float, default=0.1)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("homogenize", parents=[seeded],
                       help="run the partition pipeline on a .khg instance")
    p.add_argument("instance")
    p.add_argument("--eps", type=float, default=0.2)
    p.add_argument("--links", help="link table written by gen; it is checked "
                                   "and digested, but the pipeline reads "
                                   "nothing of it")
    p.add_argument("--max-anchors", type=_positive_int, default=512)
    p.set_defaults(func=_cmd_homogenize)

    p = sub.add_parser("audit", parents=[out],
                       help="audit a partition against a graph")
    p.add_argument("graph", help=".khg or .w3g input")
    p.add_argument("partition", help=".part input")
    p.add_argument("--eps", type=float, default=0.2)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("vc", parents=[out],
                       help="VC dimension of a bipartite or tripartite instance")
    p.add_argument("instance")
    p.add_argument("--cap", type=_positive_int, default=8)
    p.set_defaults(func=_cmd_vc)

    gowers = sub.add_parser("gowers", help="tower-type construction tools")
    gsub = gowers.add_subparsers(dest="gowers_command", required=True)

    gcommon = argparse.ArgumentParser(add_help=False, parents=[seeded])
    gcommon.add_argument("--mode", choices=("paper", "toy"))
    gcommon.add_argument("--toy", dest="mode", action="store_const", const="toy")
    gcommon.add_argument("--eps", type=float)
    gcommon.add_argument("--delta", type=float)
    gcommon.add_argument("--n", type=int, required=True)
    gcommon.add_argument("--t", type=int)
    gcommon.add_argument("--growth", type=int)
    gcommon.add_argument("--s0", type=int)

    p = gsub.add_parser("build", parents=[gcommon],
                        help="materialize the weighted tripartite system")
    p.set_defaults(func=_cmd_gowers_build)

    p = gsub.add_parser("links", parents=[gcommon],
                        help="emit and verify one link certificate per vertex")
    p.add_argument("--draws", type=_positive_int, default=2000)
    p.set_defaults(func=_cmd_gowers_links)

    p = gsub.add_parser("sample", parents=[gcommon],
                        help="draw an unweighted instance and check concentration")
    p.add_argument("--boxes", type=_nonnegative_int, default=100)
    p.add_argument("--fraction", type=_fraction, default=0.5)
    p.set_defaults(func=_cmd_gowers_sample)

    p = gsub.add_parser("cascade", parents=[gcommon],
                        help="run the refinement cascade against a candidate")
    p.add_argument("--candidate", help=".part candidate; trivial otherwise")
    p.set_defaults(func=_cmd_gowers_cascade)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # malformed, missing or unreadable files, bad pins and
        # infeasible parameters
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CoverageError as exc:
        print(f"coverage failure: {exc.uncovered} tuples uncovered "
              f"(budget {exc.budget:.6g}, {exc.n_anchors} anchors)",
              file=sys.stderr)
        return 1
    except FamilyRejectionError as exc:
        print(f"rejection failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
