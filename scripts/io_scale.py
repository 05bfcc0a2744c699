"""Time the flat-file writers and readers at one size and report peak
RSS after each.

Usage, from the root of a checkout:

    python3 scripts/io_scale.py 144
    python3 scripts/io_scale.py 144 --src /path/to/other/checkout/src

Makes three artifacts with n vertices per part: the planted-boxes
instance the files benchmark generates (r=16, eps'=0.1, seed 1) as a
``.khg``, its audit over the singleton partition at eps=0.2 as an
``.audit``, and the toy tower (the CLI's ``gowers build --toy``
defaults, s0=4, seed 1) as a ``.w3g``. Each is written with a
manifest stamp to a temporary directory and read back. Prints one
JSON line: the bytes of each file, seconds to make, write and read
each artifact, and ``ru_maxrss`` in MB after each step. After all
timings each file is read once more under ``tracemalloc``, whose peak
in MiB is ``{name}_read_traced_mib``: ``ru_maxrss`` never falls, so a
read that needs less than an earlier step shows only there. Last
comes whether every read equals what was written. Run one size per
process.
"""

import argparse
import json
import os
import resource
import sys
import tempfile
import time
import tracemalloc


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("n", type=int)
    parser.add_argument("--src", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import numpy as np

    import homopart as hp
    from homopart import io as hio

    n = args.n
    out = {"n": n}

    def stage(name, fn):
        start = time.perf_counter()
        value = fn()
        out[f"{name}_s"] = round(time.perf_counter() - start, 3)
        out[f"{name}_peak_rss_mb"] = round(peak_mb(), 1)
        return value

    inst = hp.generate(hp.InstanceSpec(k=3, n=(n,) * 3, family="planted-boxes",
                                       r=16, eps_prime=0.1, seed=1))
    singletons = hp.LayeredPartition([hp.PartPartition.singletons(n, part=i)
                                      for i in range(3)])
    params = hp.build_sequence(1e-6, 0.5, mode="toy", t=3, growth=2, s0=4, seed=1)
    artifacts = [
        ("khg", lambda: inst.h, hio.write_khg, hio.read_khg),
        ("audit", lambda: hp.homogeneity_audit(inst.h, singletons, 0.2),
         hio.write_audit, hio.read_audit),
        ("w3g", lambda: hp.build_weighted(params, n).weighted,
         hio.write_w3g, hio.read_w3g),
    ]
    pairs = []
    with tempfile.TemporaryDirectory() as tmp:
        path = lambda name: os.path.join(tmp, f"artifact.{name}")
        for name, make, write, read in artifacts:
            obj = stage(f"{name}_make", make)
            stage(f"{name}_write", lambda: write(path(name), obj, digest="0" * 64))
            out[f"{name}_bytes"] = os.path.getsize(path(name))
            pairs.append((obj, stage(f"{name}_read", lambda: read(path(name)))))
        for name, _, _, read in artifacts:
            tracemalloc.start()
            try:
                read(path(name))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            out[f"{name}_read_traced_mib"] = round(peak / 2**20, 1)
    khg, audit, w3g = pairs
    out["round_trip"] = (khg[0] == khg[1] and audit[0] == audit[1]
                         and np.array_equal(w3g[0].weights, w3g[1].weights))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
