"""Flat text formats for graphs, partitions, audits, and link tables.

All files are ASCII with LF line endings. Lines starting with ``#``
are comments and are skipped by every reader; writers use them for
two things: a trailing ``# manifest <digest>`` stamp tying the
artifact to the run that produced it, and ``#meta`` lines carrying
partition attributes (part index, exceptional and equitable flags,
block count) that the bare label rows cannot express. Readers that
ignore comments still get a well-formed file; ours reproduce the
in-memory objects exactly.

Formats:

* ``.khg``   header ``khg k n_1 ... n_k``, then one edge per line as
  k 0-based vertex indices.
* ``.w3g``   header ``w3g nA nB nC``, then ``a b c w`` per nonzero
  cell with w a decimal in [0, 1]; absent cells are weight 0.
* ``.part``  header ``part k``, then per part one line of block
  labels (label 0 is the exceptional block when flagged).
* ``.audit`` header ``audit block <eps> <pass|fail> <mass>``, then
  per block tuple ``labels... density pass|fail``. Readers require
  the second field but ignore its value, which older files may spell
  differently.
* ``.links`` header ``links <r>``, then one stored partition per
  line: ``<pins> <side> <nblocks> <exceptional> <equitable> <part>``
  followed by the labels, where ``<pins>`` is ``-`` or
  comma-joined ``part:vertex`` pairs.

Parse errors raise FormatError carrying the byte offset of the
offending line. Writes go through a temp file and an atomic rename.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from .auditor import HomogeneityReport
from .errors import FormatError
from .hypercore import KPartiteHypergraph, WeightedTripartite
from .partitions import LayeredPartition, PartPartition


def _atomic_write(path, text: str, digest=None):
    if digest is not None:
        text += f"# manifest {digest}\n"
    data = text.encode("ascii")
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-io-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text(path, text: str, *, digest=None):
    """Write a plain text artifact, optionally stamped with a digest."""
    _atomic_write(path, text, digest)


def _content_lines(path):
    """(byte offset, text) per non-blank line, comments included;
    ``_data_lines`` drops the comments."""
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        raw.decode("ascii")
    except UnicodeDecodeError as exc:
        raise FormatError(exc.start, "non-ASCII byte") from None
    lines = []
    offset = 0
    for chunk in raw.split(b"\n"):
        text = chunk.decode("ascii").rstrip("\r")
        if text:
            lines.append((offset, text))
        offset += len(chunk) + 1
    return lines


def _data_lines(path):
    return [(o, t) for o, t in _content_lines(path) if not t.startswith("#")]


def read_digest(path):
    """The embedded manifest digest, or None."""
    for _, text in _content_lines(path):
        if text.startswith("# manifest "):
            return text.split()[2]
    return None


def _ints(offset, tokens, count=None):
    if count is not None and len(tokens) != count:
        raise FormatError(offset, f"expected {count} fields, got {len(tokens)}")
    try:
        return [int(t) for t in tokens]
    except ValueError as exc:
        raise FormatError(offset, f"bad integer: {exc}") from None


def _comment_value(offset, text, parse):
    """The value of a ``#key value`` comment line, parsed."""
    tokens = text.split()
    try:
        return parse(tokens[1])
    except (IndexError, ValueError):
        raise FormatError(offset, f"bad {tokens[0]} line") from None


def write_khg(path, h: KPartiteHypergraph, *, digest=None):
    sizes = " ".join(str(s) for s in h.part_sizes)
    rows = [f"khg {h.k} {sizes}"]
    for edge in np.argwhere(h.to_dense()):
        rows.append(" ".join(str(v) for v in edge))
    _atomic_write(path, "\n".join(rows) + "\n", digest)


def read_khg(path) -> KPartiteHypergraph:
    lines = _data_lines(path)
    if not lines:
        raise FormatError(0, "empty file, expected a khg header")
    offset, header = lines[0]
    tokens = header.split()
    if tokens[0] != "khg" or len(tokens) < 2:
        raise FormatError(offset, "expected header 'khg k n_1 ... n_k'")
    k = _ints(offset, tokens[1:2])[0]
    sizes = _ints(offset, tokens[2:], count=k)
    tensor = np.zeros(tuple(sizes), dtype=bool)
    for offset, text in lines[1:]:
        edge = _ints(offset, text.split(), count=k)
        for i, v in enumerate(edge):
            if not 0 <= v < sizes[i]:
                raise FormatError(offset, f"vertex {v} out of range for part {i}")
        tensor[tuple(edge)] = True
    return KPartiteHypergraph.from_dense(tensor)


def write_w3g(path, weighted: WeightedTripartite, *, digest=None):
    shape = weighted.weights.shape
    rows = [f"w3g {shape[0]} {shape[1]} {shape[2]}"]
    for a, b, c in np.argwhere(weighted.weights != 0.0):
        rows.append(f"{a} {b} {c} {float(weighted.weights[a, b, c])!r}")
    _atomic_write(path, "\n".join(rows) + "\n", digest)


def read_w3g(path) -> WeightedTripartite:
    lines = _data_lines(path)
    if not lines:
        raise FormatError(0, "empty file, expected a w3g header")
    offset, header = lines[0]
    tokens = header.split()
    if tokens[0] != "w3g":
        raise FormatError(offset, "expected header 'w3g nA nB nC'")
    sizes = _ints(offset, tokens[1:], count=3)
    weights = np.zeros(tuple(sizes))
    for offset, text in lines[1:]:
        tokens = text.split()
        if len(tokens) != 4:
            raise FormatError(offset, f"expected 'a b c w', got {len(tokens)} fields")
        cell = _ints(offset, tokens[:3])
        for i, v in enumerate(cell):
            if not 0 <= v < sizes[i]:
                raise FormatError(offset, f"vertex {v} out of range for part {i}")
        try:
            w = float(tokens[3])
        except ValueError:
            raise FormatError(offset, f"bad weight {tokens[3]!r}") from None
        if not 0.0 <= w <= 1.0:
            raise FormatError(offset, f"weight {w} outside [0, 1]")
        weights[tuple(cell)] = w
    return WeightedTripartite(weights)


def _meta_line(i: int, p: PartPartition) -> str:
    part = "-" if p.part is None else str(p.part)
    return (f"#meta {i} part={part} exceptional={int(p.has_exceptional)} "
            f"equitable={int(p.equitable)} nblocks={p.n_blocks}")


def _parse_meta(offset, text):
    fields = {}
    for token in text.split()[2:]:
        key, _, value = token.partition("=")
        fields[key] = value
    try:
        return {
            "part": None if fields["part"] == "-" else int(fields["part"]),
            "has_exceptional": bool(int(fields["exceptional"])),
            "equitable": bool(int(fields["equitable"])),
            "n_blocks": int(fields["nblocks"]),
        }
    except (KeyError, ValueError) as exc:
        raise FormatError(offset, f"bad #meta line: {exc}") from None


def write_part(path, layered: LayeredPartition, *, digest=None):
    rows = [f"part {layered.k}"]
    for i, p in enumerate(layered):
        rows.append(_meta_line(i, p))
        rows.append(" ".join(str(v) for v in p.labels))
    _atomic_write(path, "\n".join(rows) + "\n", digest)


def read_part(path) -> LayeredPartition:
    lines = _content_lines(path)
    data = [(o, t) for o, t in lines if not t.startswith("#")]
    if not data:
        raise FormatError(0, "empty file, expected a part header")
    offset, header = data[0]
    tokens = header.split()
    if tokens[0] != "part" or len(tokens) != 2:
        raise FormatError(offset, "expected header 'part k'")
    k = _ints(offset, tokens[1:])[0]
    if len(data) - 1 != k:
        raise FormatError(offset, f"expected {k} label lines, found {len(data) - 1}")

    # meta comments attach to the next label line
    meta_by_offset = {}
    pending = None
    for offset, text in lines:
        if text.startswith("#meta"):
            pending = _parse_meta(offset, text)
        elif not text.startswith("#"):
            if pending is not None:
                meta_by_offset[offset] = pending
                pending = None

    parts = []
    for i, (offset, text) in enumerate(data[1:]):
        labels = _ints(offset, text.split())
        if any(v < 0 for v in labels):
            raise FormatError(offset, "labels must be nonnegative")
        meta = meta_by_offset.get(offset)
        try:
            if meta is None:
                parts.append(PartPartition(labels, part=i))
            else:
                parts.append(PartPartition(
                    labels,
                    part=meta["part"],
                    n_blocks=meta["n_blocks"],
                    has_exceptional=meta["has_exceptional"],
                    equitable=meta["equitable"],
                ))
        except ValueError as exc:
            raise FormatError(offset, str(exc)) from None
    return LayeredPartition(parts)


def write_audit(path, report: HomogeneityReport, *, digest=None):
    verdict = "pass" if report.passed else "fail"
    rows = [
        f"audit block {float(report.eps)!r} {verdict} {report.mass}",
        f"#normalized {float(report.normalized_mass)!r}",
        f"#weighted {int(report.weighted)}",
    ]
    for labels, density, ok in report.rows:
        tuple_verdict = "pass" if ok else "fail"
        labels_text = " ".join(str(int(v)) for v in labels)
        rows.append(f"{labels_text} {float(density)!r} {tuple_verdict}")
    _atomic_write(path, "\n".join(rows) + "\n", digest)


def read_audit(path) -> HomogeneityReport:
    lines = _content_lines(path)
    data = [(o, t) for o, t in lines if not t.startswith("#")]
    if not data:
        raise FormatError(0, "empty file, expected an audit header")
    offset, header = data[0]
    tokens = header.split()
    if tokens[0] != "audit" or len(tokens) != 5:
        raise FormatError(offset, "expected header 'audit block eps verdict mass'")
    try:
        eps = float(tokens[2])
    except ValueError:
        raise FormatError(offset, f"bad eps {tokens[2]!r}") from None
    if tokens[3] not in ("pass", "fail"):
        raise FormatError(offset, f"verdict must be pass or fail, got {tokens[3]!r}")
    passed = tokens[3] == "pass"
    mass = _ints(offset, tokens[4:5])[0]

    normalized = 0.0
    weighted = False
    for o, text in lines:
        if text.startswith("#normalized"):
            normalized = _comment_value(o, text, float)
        elif text.startswith("#weighted"):
            weighted = bool(_comment_value(o, text, int))

    labels, densities, oks = [], [], []
    for offset, text in data[1:]:
        tokens = text.split()
        if len(tokens) < 3:
            raise FormatError(offset, "expected 'labels... density verdict'")
        if tokens[-1] not in ("pass", "fail"):
            raise FormatError(offset, f"verdict must be pass or fail, got {tokens[-1]!r}")
        try:
            densities.append(float(tokens[-2]))
        except ValueError:
            raise FormatError(offset, f"bad density {tokens[-2]!r}") from None
        row = _ints(offset, tokens[:-2])
        if labels and len(row) != len(labels[0]):
            raise FormatError(offset, f"expected {len(labels[0])} block labels")
        labels.append(row)
        oks.append(tokens[-1] == "pass")
    width = len(labels[0]) if labels else 0
    return HomogeneityReport(
        eps=eps,
        passed=passed,
        mass=mass,
        normalized_mass=normalized,
        weighted=weighted,
        labels=np.array(labels, dtype=np.int64).reshape(len(labels), width),
        densities=np.array(densities, dtype=np.float64),
        ok=np.array(oks, dtype=bool),
    )


def _pins_token(pins) -> str:
    if not pins:
        return "-"
    return ",".join(f"{p}:{v}" for p, v in pins)


def _parse_pins(offset, token):
    if token == "-":
        return ()
    pins = []
    for piece in token.split(","):
        part, sep, vertex = piece.partition(":")
        if not sep:
            raise FormatError(offset, f"bad pin {piece!r}, expected part:vertex")
        pins.append(tuple(_ints(offset, [part, vertex])))
    return tuple(pins)


def write_links(path, table: dict, r: int, *, digest=None):
    """Store a pin-keyed partition table, FileOracle's input."""
    rows = [f"links {int(r)}"]
    for (pins, side) in sorted(table, key=lambda key: (key[0], key[1])):
        p = table[(pins, side)]
        part = "-" if p.part is None else str(p.part)
        labels = " ".join(str(v) for v in p.labels)
        rows.append(
            f"{_pins_token(pins)} {side} {p.n_blocks} "
            f"{int(p.has_exceptional)} {int(p.equitable)} {part} {labels}"
        )
    _atomic_write(path, "\n".join(rows) + "\n", digest)


def read_links(path) -> tuple:
    """(table, r) suitable for FileOracle."""
    lines = _data_lines(path)
    if not lines:
        raise FormatError(0, "empty file, expected a links header")
    offset, header = lines[0]
    tokens = header.split()
    if tokens[0] != "links" or len(tokens) != 2:
        raise FormatError(offset, "expected header 'links r'")
    r = _ints(offset, tokens[1:])[0]
    table = {}
    for offset, text in lines[1:]:
        tokens = text.split()
        if len(tokens) < 7:
            raise FormatError(
                offset, "expected 'pins side nblocks exceptional equitable part labels...'"
            )
        pins = _parse_pins(offset, tokens[0])
        side, n_blocks, exceptional, equitable = _ints(offset, tokens[1:5])
        part = None if tokens[5] == "-" else _ints(offset, tokens[5:6])[0]
        labels = _ints(offset, tokens[6:])
        try:
            partition = PartPartition(
                labels,
                part=part,
                n_blocks=n_blocks,
                has_exceptional=bool(exceptional),
                equitable=bool(equitable),
            )
        except ValueError as exc:
            raise FormatError(offset, str(exc)) from None
        key = (pins, side)
        if key in table:
            raise FormatError(offset, f"duplicate entry for pins={pins} side={side}")
        table[key] = partition
    return table, r
