"""Command line workbench around the library.

Single-process driver: subcommands generate instances, run the
homogenization pipeline, audit partitions, measure VC dimension,
exercise the tower construction, and time sweeps. Every run writes a
``manifest.json`` into the output directory and stamps each emitted
artifact with the manifest's core digest, so an artifact can always
be traced to the exact invocation that produced it and reruns with
an equal manifest reproduce it byte for byte.

Exit status: 0 on success, 1 when an audit or verification fails
(the report still gets written), 2 on usage errors including
malformed input files.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import io as hio
from .auditor import homogeneity_audit, slicewise_vc, vc_dimension
from .errors import (
    CoverageError,
    FamilyRejectionError,
    FormatError,
    InfeasibleParamsError,
    PinError,
)
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
from .oracles import FileOracle, GreedyOracle
from .partitions import LayeredPartition, PartPartition


def _out_path(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _finish(args, man: RunManifest, t0: float, outputs) -> None:
    man.outputs = {name: file_digest(path) for name, path in outputs.items()}
    man.timing = time.perf_counter() - t0
    man.write(_out_path(args, "manifest.json"))


def _cmd_gen(args) -> int:
    n = tuple(args.n)
    if len(n) == 1:
        n = n * args.k
    spec = InstanceSpec(
        k=len(n), n=n, family=args.family, r=args.r,
        eps_prime=args.eps_prime, seed=args.seed,
    )
    man = RunManifest(
        command="gen",
        params={"family": args.family, "n": list(n), "r": args.r,
                "eps_prime": args.eps_prime},
        seed=args.seed, mode="-",
    )
    digest = man.digest()
    t0 = time.perf_counter()
    inst = generate(spec)
    outputs = {}
    path = _out_path(args, "instance.khg")
    hio.write_khg(path, inst.h, digest=digest)
    outputs["instance.khg"] = path
    if inst.side_partitions:
        table = {((), side): p for side, p in inst.side_partitions.items()}
        path = _out_path(args, "instance.links")
        hio.write_links(path, table, spec.r, digest=digest)
        outputs["instance.links"] = path
    _finish(args, man, t0, outputs)
    print(f"gen {args.family} n={n} edges={inst.h.edge_count} "
          f"exact_links={inst.exact_links}")
    return 0


def _cmd_homogenize(args) -> int:
    mode = args.mode or "practical"
    if mode not in ("practical", "paper"):
        print(f"error: homogenize mode must be practical or paper, got {mode}",
              file=sys.stderr)
        return 2
    eps = args.eps if args.eps is not None else 0.2
    inputs = {"instance": args.instance}
    if args.links:
        inputs["links"] = args.links
    man = RunManifest(
        command="homogenize",
        params={"eps": eps, "r": args.r, "max_anchors": args.max_anchors},
        seed=args.seed, mode=mode,
        inputs={role: file_digest(path) for role, path in inputs.items()},
    )
    digest = man.digest()
    t0 = time.perf_counter()
    h = hio.read_khg(args.instance)
    if args.links:
        table, r = hio.read_links(args.links)
        oracle = FileOracle(table, r)
    else:
        oracle = GreedyOracle(h, eps ** 2 / (8.0 * h.k), args.r)
    partition, report = homogeneous_partition(
        h, oracle, eps, args.seed, mode=mode, max_anchors=args.max_anchors,
    )
    audit = homogeneity_audit(h, partition, eps)
    outputs = {}
    path = _out_path(args, "partition.part")
    hio.write_part(path, partition, digest=digest)
    outputs["partition.part"] = path
    path = _out_path(args, "report.audit")
    hio.write_audit(path, audit, digest=digest)
    outputs["report.audit"] = path
    _finish(args, man, t0, outputs)
    verdict = "pass" if audit.passed else "fail"
    print(f"homogenize eps={eps} mode={mode} blocks="
          f"{partition.block_counts()} mass={audit.mass} "
          f"normalized={audit.normalized_mass:.6g} {verdict}")
    return 0 if audit.passed else 1


def _cmd_audit(args) -> int:
    eps = args.eps if args.eps is not None else 0.2
    inputs = {"graph": args.graph, "partition": args.partition}
    man = RunManifest(
        command="audit", params={"eps": eps},
        seed=args.seed, mode="-",
        inputs={role: file_digest(path) for role, path in inputs.items()},
    )
    digest = man.digest()
    t0 = time.perf_counter()
    if args.graph.endswith(".w3g"):
        h = hio.read_w3g(args.graph)
    else:
        h = hio.read_khg(args.graph)
    partition = hio.read_part(args.partition)
    report = homogeneity_audit(h, partition, eps)
    path = _out_path(args, "report.audit")
    hio.write_audit(path, report, digest=digest)
    _finish(args, man, t0, {"report.audit": path})
    verdict = "pass" if report.passed else "fail"
    print(f"audit block eps={eps} mass={report.mass} "
          f"normalized={report.normalized_mass:.6g} {verdict}")
    return 0 if report.passed else 1


def _cmd_vc(args) -> int:
    man = RunManifest(
        command="vc", params={"cap": args.cap}, seed=args.seed, mode="-",
        inputs={"instance": file_digest(args.instance)},
    )
    digest = man.digest()
    t0 = time.perf_counter()
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
        print(f"error: vc needs k=2 or k=3 input, got k={h.k}", file=sys.stderr)
        return 2
    path = _out_path(args, "vc.txt")
    hio.write_text(path, "\n".join(rows) + "\n", digest=digest)
    _finish(args, man, t0, {"vc.txt": path})
    for row in rows[1:]:
        print(row)
    return 0


def _gowers_params(args):
    mode = args.mode or "toy"
    if mode == "practical":
        raise InfeasibleParamsError("tower construction modes are paper or toy")
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


def _gowers_manifest(args, command: str, mode: str, extra=None) -> RunManifest:
    params = {"t": args.t, "growth": args.growth, "s0": args.s0,
              "eps": args.eps, "delta": args.delta, "n": args.n}
    if extra:
        params.update(extra)
    return RunManifest(command=command, params=params, seed=args.seed, mode=mode)


def _cmd_gowers_build(args) -> int:
    params, mode = _gowers_params(args)
    man = _gowers_manifest(args, "gowers-build", mode)
    digest = man.digest()
    t0 = time.perf_counter()
    build = build_weighted(params, args.n)
    lay = build.layering
    outputs = {}
    path = _out_path(args, "gowers.w3g")
    hio.write_w3g(path, build.weighted, digest=digest)
    outputs["gowers.w3g"] = path
    finest = LayeredPartition([
        lay.a_levels[lay.t], lay.b_levels[lay.t], lay.c_layers,
    ])
    path = _out_path(args, "layering.part")
    hio.write_part(path, finest, digest=digest)
    outputs["layering.part"] = path
    _finish(args, man, t0, outputs)
    print(f"gowers build mode={mode} t={params.t} levels={params.levels} "
          f"n={args.n} relaxations={params.relaxations}")
    return 0


def _cmd_gowers_links(args) -> int:
    params, mode = _gowers_params(args)
    man = _gowers_manifest(args, "gowers-links", mode,
                           extra={"draws": args.draws})
    digest = man.digest()
    t0 = time.perf_counter()
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
    path = _out_path(args, "certificates.links")
    hio.write_links(path, table, max(params.levels), digest=digest)
    _finish(args, man, t0, {"certificates.links": path})
    summary = " ".join(f"{kind}={count}" for kind, count in sorted(kinds.items()))
    print(f"gowers links n={3 * args.n} certificates {summary} failures={failures}")
    return 0 if failures == 0 else 1


def _cmd_gowers_sample(args) -> int:
    params, mode = _gowers_params(args)
    man = _gowers_manifest(
        args, "gowers-sample", mode,
        extra={"boxes": args.boxes, "fraction": args.fraction},
    )
    digest = man.digest()
    t0 = time.perf_counter()
    build = build_weighted(params, args.n)
    result = sample_unweighted(
        build.weighted, args.seed, boxes=args.boxes, box_fraction=args.fraction,
    )
    path = _out_path(args, "sampled.khg")
    hio.write_khg(path, result.graph, digest=digest)
    _finish(args, man, t0, {"sampled.khg": path})
    rep = result.report
    print(f"gowers sample boxes={args.boxes} within={rep.n_within}/{args.boxes} "
          f"full_within={rep.full.within}")
    return 0 if rep.full.within else 1


def _cmd_gowers_cascade(args) -> int:
    params, mode = _gowers_params(args)
    inputs = {}
    if args.candidate:
        inputs["candidate"] = args.candidate
    man = _gowers_manifest(args, "gowers-cascade", mode)
    man.inputs = {role: file_digest(path) for role, path in inputs.items()}
    digest = man.digest()
    t0 = time.perf_counter()
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
    path = _out_path(args, "cascade.txt")
    hio.write_text(path, "\n".join(rows) + "\n", digest=digest)
    _finish(args, man, t0, {"cascade.txt": path})
    print(f"gowers cascade levels={len(report.levels)} witnesses={n_witnesses}")
    return 0


def _cmd_bench(args) -> int:
    eps = args.eps if args.eps is not None else 0.2
    man = RunManifest(
        command="bench",
        params={"n": list(args.n), "eps": eps, "families": list(args.families)},
        seed=args.seed, mode="-",
    )
    digest = man.digest()
    t0 = time.perf_counter()
    rows = ["bench family n gen_seconds homogenize_seconds verdict"]
    for family in args.families:
        for n in args.n:
            spec = InstanceSpec(
                k=3, n=(n, n, n), family=family, r=3, eps_prime=0.1,
                seed=args.seed,
            )
            g0 = time.perf_counter()
            inst = generate(spec)
            g1 = time.perf_counter()
            oracle = inst.oracle
            if oracle is None:
                oracle = GreedyOracle(inst.h, eps ** 2 / 24.0, 3)
            try:
                partition, _ = homogeneous_partition(
                    inst.h, oracle, eps, args.seed,
                )
                audit = homogeneity_audit(inst.h, partition, eps)
                verdict = "pass" if audit.passed else "fail"
            except CoverageError:
                verdict = "coverage-error"
            h1 = time.perf_counter()
            rows.append(f"{family} {n} {g1 - g0:.4f} {h1 - g1:.4f} {verdict}")
    path = _out_path(args, "bench.txt")
    hio.write_text(path, "\n".join(rows) + "\n", digest=digest)
    _finish(args, man, t0, {"bench.txt": path})
    for row in rows[1:]:
        print(row)
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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--mode", choices=("paper", "practical", "toy"))
    common.add_argument("--eps", type=float)
    common.add_argument("--delta", type=float)
    common.add_argument("--out", default=".")

    parser = argparse.ArgumentParser(
        prog="homopart",
        description="Workbench for homogeneous partitions of k-partite "
                    "hypergraphs and the tower-type weighted construction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common],
                       help="generate a seeded instance plus its oracle sidecar")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--n", type=int, nargs="+", required=True,
                   help="part sizes; a single value applies to every part")
    p.add_argument("--k", type=int, default=3,
                   help="part count when --n gives a single size")
    p.add_argument("--r", type=int, default=3)
    p.add_argument("--eps-prime", type=float, default=0.1)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("homogenize", parents=[common],
                       help="run the partition pipeline on a .khg instance")
    p.add_argument("instance")
    p.add_argument("--links", help="oracle sidecar; greedy splits otherwise")
    p.add_argument("--r", type=int, default=3)
    p.add_argument("--max-anchors", type=int, default=512)
    p.set_defaults(func=_cmd_homogenize)

    p = sub.add_parser("audit", parents=[common],
                       help="audit a partition against a graph")
    p.add_argument("graph", help=".khg or .w3g input")
    p.add_argument("partition", help=".part input")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("vc", parents=[common],
                       help="VC dimension of a bipartite or tripartite instance")
    p.add_argument("instance")
    p.add_argument("--cap", type=_positive_int, default=8)
    p.set_defaults(func=_cmd_vc)

    gowers = sub.add_parser("gowers", help="tower-type construction tools")
    gsub = gowers.add_subparsers(dest="gowers_command", required=True)

    gcommon = argparse.ArgumentParser(add_help=False, parents=[common])
    gcommon.add_argument("--toy", dest="mode", action="store_const", const="toy")
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

    p = sub.add_parser("bench", parents=[common],
                       help="time generate and homogenize sweeps")
    p.add_argument("--n", type=int, nargs="+", default=[30, 60])
    p.add_argument("--families", nargs="+", default=["planted-boxes", "product"],
                   choices=FAMILIES)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InfeasibleParamsError, PinError) as exc:
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
