"""The three benchmark workloads.

Each workload has a ``setup`` (instance generation and other inputs),
a list of timed operations that make up one pass, and a ``check`` of
the last pass's outputs. Inputs are derived from the workload seed
only; the program sees nothing but the generated inputs.

* ``analyze``: the README quick-taste path in memory, partition plus
  audit on an interval-threshold and a planted-boxes instance, then
  ``slicewise_vc`` on a uniform-random and a planted-boxes instance.
* ``tower``: the tower-type counterexample in memory: build, one link
  certificate per vertex, the refinement cascade against the ladder of
  interval candidates, sampling, and orthogonal families on both the
  code and the coin path.
* ``files``: the README command-line chain through
  ``homopart.cli.main``, where writing and parsing the flat files does
  most of the work.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil

import numpy as np

import checks

import homopart
import homopart.cli
from homopart import io as hio

EPS = 0.2

# Sizes per part. "full" is what the benchmark measures; "smoke" runs
# every operation and check in seconds, for the benchmark's own tests.
SIZES = {
    "full": {"analyze_n": 144, "vc_random_n": 10, "vc_planted_n": 18,
             "tower_n": 144, "family_seeds": 3, "files_n": 48},
    "smoke": {"analyze_n": 24, "vc_random_n": 6, "vc_planted_n": 8,
              "tower_n": 24, "family_seeds": 1, "files_n": 24},
}

# Toy tower: t=3 levels of growth 2 with s0=4, so the layer-3 vertices
# carry quasirandom certificates; eps small enough that every cascade
# level is runnable (beta_3 = 7^3 eps^(1/4) < 1/2).
TOWER = {"t": 3, "growth": 2, "s0": 4, "eps": 1e-12, "delta": 0.5}

# (m, M) pairs for orthogonal_family: the first is past the fair-coin
# regime and takes the Reed-Muller code path, the second the coin path.
FAMILY_PAIRS = ((30, 2000), (150, 2000))

PLANTED_BLOCKS = 3

# Blocks per part of the files workload's planted instance. Its edge
# count, and with it the .khg work, is a Binomial(r^3, 1/2) share of
# the cells; r = 16 keeps that within a few percent across seeds,
# where r = 3 swings it by a fifth.
FILES_BLOCKS = 16


def derive_seed(seed: int, tag: str) -> int:
    """A 32-bit seed for one purpose, derived from the workload seed."""
    entropy = [seed] + list(tag.encode())
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


class Workload:
    """Set-up, one pass of timed operations, and the output checks.

    ``operations()`` returns (name, stage, function) triples in pass
    order; each function takes the pass's outputs so far and returns
    its own output, stored under its name.
    """

    name = ""
    stages = ()

    def __init__(self, seed: int, size: str, out_dir: str):
        self.seed = seed
        self.size = SIZES[size]
        self.out_dir = out_dir

    def setup(self):
        raise NotImplementedError

    def operations(self):
        raise NotImplementedError

    def check(self, outputs) -> list:
        raise NotImplementedError


def _dense(h) -> np.ndarray:
    return checks.unpack_words(h.words, h.part_sizes[-1])


class Analyze(Workload):
    name = "analyze"
    stages = ("partition_s", "vc_s")

    def setup(self):
        n = self.size["analyze_n"]
        specs = {
            "interval": ("interval-threshold", n),
            "planted": ("planted-boxes", n),
            "vc_random": ("uniform-random", self.size["vc_random_n"]),
            "vc_planted": ("planted-boxes", self.size["vc_planted_n"]),
        }
        self.instances = {
            key: homopart.generate(homopart.InstanceSpec(
                k=3, n=(size,) * 3, family=family, r=PLANTED_BLOCKS,
                eps_prime=0.1, seed=derive_seed(self.seed, f"analyze/{key}")))
            for key, (family, size) in specs.items()
        }

    def operations(self):
        ops = []
        for key in ("interval", "planted"):
            inst = self.instances[key]
            seed = derive_seed(self.seed, f"analyze/{key}/pipeline")
            ops.append((f"partition:{key}", "partition_s",
                        lambda out, inst=inst, seed=seed:
                        homopart.homogeneous_partition(
                            inst.h, inst.oracle, EPS, seed)))
            ops.append((f"audit:{key}", "partition_s",
                        lambda out, inst=inst, key=key:
                        homopart.homogeneity_audit(
                            inst.h, out[f"partition:{key}"][0], EPS)))
        for key in ("vc_random", "vc_planted"):
            ops.append((f"vc:{key}", "vc_s",
                        lambda out, inst=self.instances[key]:
                        homopart.slicewise_vc(inst.h)))
        return ops

    def check(self, outputs) -> list:
        errors = []
        for key in ("interval", "planted"):
            h = self.instances[key].h
            tensor = _dense(h)
            if key == "interval":
                axes = np.ix_(*[(np.arange(v) + 0.5) / v for v in h.part_sizes])
                if not np.array_equal(tensor, sum(axes) <= 1.5):
                    errors.append("interval-threshold edges differ from "
                                  "x + y + z <= 3/2")
            partition, report = outputs[f"partition:{key}"]
            errors += [f"{key}: {e}" for e in checks.check_partition(
                partition, h.part_sizes, report.p, EPS)]
            labels = [np.asarray(p.labels) for p in partition]
            errors += [f"{key}: {e}" for e in checks.check_audit(
                tensor, labels, EPS, outputs[f"audit:{key}"])]
        for key, blocks in (("vc_random", None), ("vc_planted", PLANTED_BLOCKS)):
            errors += [f"{key}: {e}" for e in checks.check_vc(
                _dense(self.instances[key].h), outputs[f"vc:{key}"],
                blocks=blocks)]
        return errors


class Tower(Workload):
    name = "tower"
    stages = ("build_s", "certify_s", "cascade_s", "sample_s", "family_s")

    def setup(self):
        n = self.size["tower_n"]
        self.params = homopart.build_sequence(
            TOWER["eps"], TOWER["delta"], mode="toy", t=TOWER["t"],
            growth=TOWER["growth"], s0=TOWER["s0"],
            seed=derive_seed(self.seed, "tower/build"))
        self.ladder = [
            homopart.LayeredPartition([
                homopart.PartPartition.intervals(n, m, part=i)
                for i in range(3)])
            for m in self.params.levels
        ]
        self.family_seeds = [derive_seed(self.seed, f"tower/family{i}")
                             for i in range(self.size["family_seeds"])]

    def operations(self):
        n = self.size["tower_n"]
        ops = [("build", "build_s", lambda out: homopart.build_weighted(
            self.params, n))]

        def certify(out, part, v):
            build = out["build"]
            cert = homopart.link_certificate(build, part, v)
            return cert, homopart.verify_certificate(build, cert)

        for part in range(3):
            for v in range(n):
                ops.append((f"cert:{part}:{v}", "certify_s",
                            lambda out, part=part, v=v: certify(out, part, v)))
        for level, candidate in enumerate(self.ladder):
            ops.append((f"cascade:{level}", "cascade_s",
                        lambda out, c=candidate: homopart.refinement_cascade(
                            out["build"], c)))
        sample_seed = derive_seed(self.seed, "tower/sample")
        ops.append(("sample", "sample_s",
                    lambda out: homopart.sample_unweighted(
                        out["build"].weighted, sample_seed)))
        for m, size in FAMILY_PAIRS:
            for i, seed in enumerate(self.family_seeds):
                ops.append((f"family:{m}x{size}:{i}", "family_s",
                            lambda out, m=m, size=size, seed=seed:
                            homopart.orthogonal_family(m, size, seed=seed)))
        return ops

    def check(self, outputs) -> list:
        weights = np.asarray(outputs["build"].weighted.weights)
        t = self.params.t
        errors = checks.check_weights(weights, t)
        for key, value in outputs.items():
            if key.startswith("cert:"):
                errors += checks.check_certificate(weights, *value)
            elif key.startswith("cascade:"):
                errors += checks.check_cascade(
                    weights, int(key.split(":")[1]), t, value)
        errors += checks.check_sample(weights, outputs["sample"].graph.words)
        for m, size in FAMILY_PAIRS:
            for i in range(len(self.family_seeds)):
                errors += checks.check_family(
                    outputs[f"family:{m}x{size}:{i}"], m, size)
        return errors


class Files(Workload):
    name = "files"
    stages = ("cmd_gen_s", "cmd_homogenize_s", "cmd_audit_s",
              "cmd_gowers_build_s", "cmd_audit_w3g_s", "cmd_gowers_sample_s",
              "read_audit_s")

    def setup(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.out_dir)
        self.cli_seed = derive_seed(self.seed, "files/cli")

    def _dir(self, name):
        return os.path.join(self.out_dir, name)

    def commands(self):
        """(stage, argv, expected exit code) in chain order."""
        n, seed, d = str(self.size["files_n"]), str(self.cli_seed), self._dir
        tower = ["--toy", "--n", n, "--s0", str(TOWER["s0"]), "--seed", seed]
        return [
            ("cmd_gen_s", ["gen", "--family", "planted-boxes", "--n", n,
                           "--r", str(FILES_BLOCKS), "--seed", seed,
                           "--out", d("gen")], 0),
            ("cmd_homogenize_s", [
                "homogenize", d("gen/instance.khg"),
                "--links", d("gen/instance.links"), "--seed", seed,
                "--out", d("homogenize")], 0),
            ("cmd_audit_s", ["audit", d("gen/instance.khg"),
                             d("homogenize/partition.part"),
                             "--out", d("audit")], 0),
            ("cmd_gowers_build_s", ["gowers", "build", *tower,
                                    "--out", d("gowers")], 0),
            # densities 1/2 and 1/4 are not within 0.2 of 0 or 1, so
            # this audit must fail with exit code 1
            ("cmd_audit_w3g_s", ["audit", d("gowers/gowers.w3g"),
                                 d("gowers/layering.part"),
                                 "--out", d("audit_w3g")], 1),
            ("cmd_gowers_sample_s", ["gowers", "sample", *tower,
                                     "--out", d("sample")], 0),
        ]

    def operations(self):
        def run(argv):
            with contextlib.redirect_stdout(io.StringIO()):
                return homopart.cli.main(argv)

        ops = [(stage, stage, lambda out, argv=argv: run(argv))
               for stage, argv, _ in self.commands()]
        ops.append(("read_audit_s", "read_audit_s",
                    lambda out: hio.read_audit(self._dir("audit/report.audit"))))
        return ops

    def check(self, outputs) -> list:
        errors = []
        for stage, argv, expected in self.commands():
            if outputs[stage] != expected:
                errors.append(f"{' '.join(argv[:2])} exited {outputs[stage]}, "
                              f"expected {expected}")
        n = self.size["files_n"]
        inst = homopart.generate(homopart.InstanceSpec(
            k=3, n=(n,) * 3, family="planted-boxes", r=FILES_BLOCKS,
            eps_prime=0.1, seed=self.cli_seed))
        tensor = checks.parse_khg(self._dir("gen/instance.khg"))
        if not np.array_equal(tensor, _dense(inst.h)):
            errors.append("the .khg file does not hold the generated edges")
        labels = checks.parse_part(self._dir("homogenize/partition.part"))
        errors += checks.check_audit(tensor, labels, EPS,
                                     outputs["read_audit_s"])
        expected = homopart.homogeneity_audit(
            tensor, hio.read_part(self._dir("homogenize/partition.part")), EPS)
        if outputs["read_audit_s"] != expected:
            errors.append("io.read_audit differs from the audit command's report")
        # the CLI's tower defaults: eps 1e-6, delta 0.5, t 3, growth 2
        params = homopart.build_sequence(
            1e-6, 0.5, mode="toy", t=3, growth=2, s0=TOWER["s0"],
            seed=self.cli_seed)
        weights = homopart.build_weighted(params, n).weighted.weights
        parsed = checks.parse_w3g(self._dir("gowers/gowers.w3g"))
        if parsed.tobytes() != np.asarray(weights).tobytes():
            errors.append("the .w3g file differs from the build's weights")
        return errors


WORKLOADS = {cls.name: cls for cls in (Analyze, Tower, Files)}
