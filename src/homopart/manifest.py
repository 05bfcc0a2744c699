"""Run manifests: reproducibility records for every CLI invocation.

A manifest captures everything that determines a run's outputs: the
command name, its full parameter set, the seed, the mode, the
toolkit version, and digests of the input files. Two runs with equal
core manifests must produce byte-identical artifacts, so the core
digest excludes wall-clock timing and the output digests (both are
recorded for inspection, neither determines the result). Artifacts
embed the core digest in a trailing comment; ``io.read_digest``
recovers it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

from . import __version__
from .io import _atomic_write


def file_digest(path) -> str:
    """Hex sha256 of the file's bytes."""
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    """Record of one toolkit run."""

    command: str
    params: dict
    seed: int
    mode: str
    version: str = __version__
    inputs: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    timing: float = 0.0

    def core(self) -> dict:
        """The fields that determine the outputs."""
        return {
            "command": self.command,
            "params": self.params,
            "seed": self.seed,
            "mode": self.mode,
            "version": self.version,
            "inputs": self.inputs,
        }

    def digest(self) -> str:
        canonical = json.dumps(self.core(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("ascii")).hexdigest()

    def to_json(self) -> str:
        payload = asdict(self)
        payload["digest"] = self.digest()
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def write(self, path):
        _atomic_write(path, self.to_json().encode("ascii"))

    @classmethod
    def read(cls, path) -> "RunManifest":
        with open(path, "r", encoding="ascii") as handle:
            payload = json.load(handle)
        stored = payload.pop("digest", None)
        manifest = cls(**payload)
        if stored is not None and stored != manifest.digest():
            raise ValueError(f"manifest digest mismatch in {path}")
        return manifest
