"""Flat files, manifests, and the command-line driver.

Everything a run produces is an ASCII file with a header line and a
trailing manifest digest comment, so artifacts can be diffed, kept as
fixtures, and traced back to the exact invocation that wrote them.
"""

import json
import tempfile
from pathlib import Path

from homopart import (
    InstanceSpec,
    LayeredPartition,
    RunManifest,
    generate,
    homogeneity_audit,
    io,
)
from homopart.cli import main

work = Path(tempfile.mkdtemp(prefix="homopart-demo-"))

# library-level round trip: write a planted instance and read it back
inst = generate(InstanceSpec(
    k=3, n=(24, 24, 24), family="planted-boxes", r=2, eps_prime=0.1, seed=5,
))
io.write_khg(work / "inst.khg", inst.h)
back = io.read_khg(work / "inst.khg")
assert (back.to_dense() == inst.h.to_dense()).all()
print(f"khg round trip: {back.edge_count} edges, parts {back.part_sizes}")

# partitions carry their flags through #meta comments, so equitable
# and exceptional markers survive the trip
layered = LayeredPartition([inst.side_partitions[i] for i in range(3)])
io.write_part(work / "sides.part", layered)
got = io.read_part(work / "sides.part")
assert all(got[i] == layered[i] for i in range(3))
print(f"part round trip: blocks {got.block_counts()}, "
      f"equitable={[p.equitable for p in got]}")

# audits serialize with exact float reprs; re-reading reproduces the
# report bit for bit
rep = homogeneity_audit(inst.h, layered, 0.2)
io.write_audit(work / "check.audit", rep)
assert io.read_audit(work / "check.audit") == rep
print(f"audit round trip: passed={rep.passed}, mass={rep.mass}")

# the CLI chains the same pieces; every run writes a manifest whose
# digest is embedded in each artifact
out1 = work / "run-gen"
code = main(["gen", "--family", "planted-boxes", "--n", "60",
             "--r", "2", "--seed", "7", "--out", str(out1)])
assert code == 0
man = RunManifest.read(out1 / "manifest.json")
print(f"gen: command={man.command!r} seed={man.seed} "
      f"digest={man.digest()[:12]}...")
assert io.read_digest(out1 / "instance.khg") == man.digest()

out2 = work / "run-homog"
code = main(["homogenize", str(out1 / "instance.khg"),
             "--links", str(out1 / "instance.links"),
             "--eps", "0.2", "--out", str(out2)])
print(f"homogenize exit {code} "
      f"(0 means the emitted partition passed its own audit)")

out3 = work / "run-audit"
code = main(["audit", str(out1 / "instance.khg"),
             str(out2 / "partition.part"), "--eps", "0.2",
             "--out", str(out3)])
assert code == 0
print("independent audit of the emitted partition: pass")

# manifests are location independent: inputs are digests keyed by
# role and the output directory never enters the core, so a rerun
# elsewhere with the same flags reproduces digest and bytes
out4 = work / "run-gen-again"
main(["gen", "--family", "planted-boxes", "--n", "60", "--r", "2",
      "--seed", "7", "--out", str(out4)])
again = RunManifest.read(out4 / "manifest.json")
assert again.digest() == man.digest()
assert (out4 / "instance.khg").read_bytes() \
    == (out1 / "instance.khg").read_bytes()
print("rerun in a fresh directory: same digest, identical bytes")

# malformed input is rejected with a byte offset and exit code 2
bad = work / "bad.khg"
bad.write_text("khg 3 4 4 4\n0 0 9\n")
code = main(["audit", str(bad), str(out2 / "partition.part")])
print(f"corrupt input exit code: {code}")

print("\nmanifest for the audit run:")
print(json.dumps(json.loads((out3 / "manifest.json").read_text()),
                 indent=2)[:400])
