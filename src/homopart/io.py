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
  differently. The rows are the row-major product of each column's
  distinct non-negative labels, each once, which are the report's
  block lists. Verdicts match the densities: a row passes exactly
  when ``homogeneous(density, eps)``, the header when ``normalized <=
  eps + 1e-12``, and the mass is 0 exactly when every row passes.
* ``.links`` header ``links <r>``, then one stored partition per
  line: ``<pins> <side> <nblocks> <exceptional> <equitable> <part>``
  followed by the labels, where ``<pins>`` is ``-`` or
  comma-joined ``part:vertex`` pairs.

Canonical form. The ``.khg``, ``.w3g`` and ``.audit`` writers emit
the header line (for ``.audit`` also the ``#normalized`` and
``#weighted`` lines), then one row per line with its fields joined by
single spaces, and at most a trailing ``# manifest`` line. Integers
are plain decimal, floats are Python's ``repr`` (the shortest text
that reads back to the same float64), and verdicts are ``pass`` or
``fail``. Edges and cells come in row-major order, each once. A row's
text does not depend on the other rows, so the writers format a
bounded group of rows at a time (``_CHUNK_BYTES``) and hand each piece
to the temporary file as it is made; no whole body is ever held.

Fast path and fallback. The readers of those three formats read a
bounded run of whole lines at a time: each run is parsed by one
``np.loadtxt`` call, range-checked with array masks and formatted
again, and must reproduce its own bytes exactly, as must the header. A
``.khg`` run sets its bits in the packed words, so a repeated edge
shows as a popcount below the row count. A ``.w3g`` or ``.audit`` run
must strictly increase from the row before it, so only that row is
kept: cells go straight into the tensor, and of an audit only each
column's distinct labels are kept besides. An audit run's verdicts
must be those of its densities. Every other file, such as one with
comments between rows, CRLF line ends, extra spaces, ``+1`` or
``1_0``, or any malformed input, goes to the per-line parser. That
parser accepts every lenient but valid file and raises every
FormatError, so both paths give the same object for every file.

Parse errors raise FormatError carrying the byte offset of the
offending line. Writes go through a temp file and an atomic rename.
"""

from __future__ import annotations

import itertools
import math
import os
import tempfile
import warnings

import numpy as np

from .auditor import HomogeneityReport, _passes
from .errors import FormatError
from .hypercore import KPartiteHypergraph, WeightedTripartite, set_edges
from .partitions import LayeredPartition, PartPartition, homogeneous


# Bytes of whole lines a canonical reader parses at a time (a longer
# line is parsed alone). The writers format at most a sixteenth as
# many cells at a time: one fiber, slab or leading block at least.
_CHUNK_BYTES = 1 << 18


def _atomic_write(path, data, digest=None):
    """Write ``data``, bytes or an iterable of byte chunks, then the
    ``# manifest`` stamp, to a temporary file renamed over ``path``.
    Each chunk goes to the file as it comes; none is joined or copied."""
    if isinstance(data, bytes):
        data = (data,)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-io-")
    try:
        with os.fdopen(fd, "wb") as handle:
            for chunk in data:
                handle.write(chunk)
            if digest is not None:
                handle.write(f"# manifest {digest}\n".encode("ascii"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text(path, text: str, *, digest=None):
    """Write a plain text artifact, optionally stamped with a digest."""
    _atomic_write(path, text.encode("ascii"), digest)


def _read_ascii(path) -> bytes:
    with open(path, "rb") as handle:
        raw = handle.read()
    if not raw.isascii():
        offset = int(np.argmax(np.frombuffer(raw, dtype=np.uint8) >= 0x80))
        raise FormatError(offset, "non-ASCII byte")
    return raw


def _content_lines(raw: bytes):
    """(byte offset, text) per non-blank line, comments included;
    ``_data_lines`` drops the comments."""
    lines = []
    offset = 0
    for chunk in raw.split(b"\n"):
        text = chunk.decode("ascii").rstrip("\r")
        if text:
            lines.append((offset, text))
        offset += len(chunk) + 1
    return lines


def _data_lines(raw: bytes):
    return [(o, t) for o, t in _content_lines(raw) if not t.startswith("#")]


def read_digest(path):
    """The embedded manifest digest, or None: the third field of the
    first line that starts with ``# manifest ``."""
    raw = _read_ascii(path)
    stamp = b"# manifest "
    if raw.startswith(stamp):
        at = 0
    else:
        at = raw.find(b"\n" + stamp) + 1
        if not at:
            return None
    end = raw.find(b"\n", at)
    return raw[at:None if end < 0 else end].decode("ascii").split()[2]


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


# --- canonical rows: one column-table formatter, one array parser ---------

_VERDICTS = np.array([b"fail", b"pass"])


def _tokens(values: np.ndarray):
    """(table, index): the text of each distinct value once, as a bytes
    array, and each value's position in it.

    Booleans are verdicts. Integers take a ``str`` table over their
    range, or over their distinct values when the range is wider than
    the column. Floats take ``repr`` of each distinct float64 bit
    pattern, so -0.0 and 0.0 (and NaN payloads) never merge.
    """
    if values.dtype == bool:
        return _VERDICTS, values.astype(np.intp)
    if values.dtype.kind == "f":
        bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
        keys, index = np.unique(bits, return_inverse=True)
        text = list(map(repr, keys.view(np.float64).tolist()))
        return np.array(text, dtype=bytes), index
    values = values.astype(np.int64, copy=False)
    lo, hi = int(values.min()), int(values.max())
    # the longest decimal in [lo, hi] is at an end; numpy's default
    # width for int64 is 21 bytes
    text = f"S{max(len(str(lo)), len(str(hi)))}"
    if hi - lo < values.size:
        return np.arange(lo, hi + 1).astype(text), values - lo
    keys, index = np.unique(values, return_inverse=True)
    return keys.astype(text), index


def _rows_text(columns) -> bytes:
    """One LF-terminated line per row, fields joined by single spaces:
    integers in decimal, floats by ``repr``, booleans as pass/fail.

    Each column's tokens are gathered from its table into a NUL-padded
    byte grid, and the padding is dropped; no step loops over rows.
    """
    columns = [np.asarray(c) for c in columns]
    n = len(columns[0]) if columns else 0
    if n == 0:
        return b""
    tables = [_tokens(c) for c in columns]
    widths = [table.itemsize for table, _ in tables]
    grid = np.zeros((n, sum(widths) + len(widths)), dtype=np.uint8)
    at = 0
    for (table, index), width in zip(tables, widths):
        grid[:, at:at + width] = table[index].view(np.uint8).reshape(n, width)
        grid[:, at + width] = ord(" ")
        at += width + 1
    grid[:, -1] = ord("\n")
    return grid[grid != 0].tobytes()


def _canonical_split(raw: bytes, n_head: int):
    """(header text, start, stop) of a file laid out as the writers lay
    it out: ``n_head`` header lines, the rows ``raw[start:stop]``, and
    at most a trailing ``# manifest`` line. None for any other layout.
    The rows are not copied."""
    start = 0
    for _ in range(n_head):
        start = raw.find(b"\n", start) + 1
        if start == 0:
            return None
    last = max(raw.rfind(b"\n", start, len(raw) - 1) + 1, start)
    stop = last if raw.startswith(b"# manifest ", last) else len(raw)
    if stop > start and not raw.endswith(b"\n", start, stop):
        return None
    return raw[:start].decode("ascii"), start, stop


def _line_chunks(raw: bytes, start: int, stop: int):
    """(row slice, bytes) of consecutive runs of whole lines covering
    ``raw[start:stop]``, which ends in a newline. Each run is at most
    ``_CHUNK_BYTES`` long unless it is one longer line; the row slice
    numbers its lines from the first line at ``start``."""
    row = 0
    while start < stop:
        end = raw.rfind(b"\n", start, min(start + _CHUNK_BYTES, stop)) + 1
        if not end:
            end = raw.find(b"\n", start, stop) + 1
        chunk = raw[start:end]
        rows = slice(row, row + chunk.count(b"\n"))
        yield rows, chunk
        row, start = rows.stop, end


def _per_chunk(cells: int) -> int:
    """How many units of ``cells`` cells each (fibers, slabs, audit
    rows) a writer formats at a time: ``_CHUNK_BYTES // 16`` cells,
    and one unit at least."""
    return max(1, _CHUNK_BYTES // 16 // max(cells, 1))


def _header_ints(text: str, keyword: str):
    """The integers of a canonical header ``keyword v_1 ... v_m``, or
    None if ``text`` is anything else."""
    tokens = text.rstrip("\n").split(" ")
    try:
        values = [int(t) for t in tokens[1:]]
    except ValueError:
        return None
    if _sizes_header(keyword, values) != text:
        return None
    return values


def _sizes_header(keyword: str, values) -> str:
    return " ".join([keyword, *map(str, values)]) + "\n"


def _load_rows(body: bytes, dtype):
    """The lines of a body parsed by one ``np.loadtxt`` call into a
    structured array, one row per line, or None if they do not parse
    that way."""
    if not body:
        return np.zeros(0, dtype=dtype)
    try:
        with warnings.catch_warnings():
            # a body of blank lines parses as no rows, with a warning
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(body.decode("ascii").splitlines(), dtype=dtype,
                              delimiter=" ", comments=None, ndmin=1)
    except ValueError:
        return None
    return rows if len(rows) == body.count(b"\n") else None


def _in_range(rows: np.ndarray, sizes) -> bool:
    return bool(np.all((rows >= 0) & (rows < np.asarray(sizes))))


def _increasing(rows: np.ndarray) -> bool:
    """Whether the non-negative int64 rows strictly increase in
    lexicographic order: each step's first non-zero column is positive."""
    steps = np.diff(rows, axis=0)
    up = steps[:, -1] > 0
    for step in steps.T[-2::-1]:
        up = np.where(step != 0, step > 0, up)
    return bool(up.all())


# --- .khg -----------------------------------------------------------------


def write_khg(path, h: KPartiteHypergraph, *, digest=None):
    header = _sizes_header("khg", (h.k, *h.part_sizes)).encode("ascii")
    step = _per_chunk(h.part_sizes[-1])
    fibers = range(0, len(h.fiber_rows()), step)
    _atomic_write(path, itertools.chain([header], (
        _rows_text(h.edge_columns(f, f + step)) for f in fibers)), digest)


def read_khg(path) -> KPartiteHypergraph:
    raw = _read_ascii(path)
    h = _khg_fast(raw)
    return _khg_by_line(raw) if h is None else h


def _khg_fast(raw: bytes):
    split = _canonical_split(raw, 1)
    if split is None:
        return None
    header, start, stop = split
    values = _header_ints(header, "khg")
    if values is None or len(values) < 3 or values[0] != len(values) - 1:
        return None
    sizes = tuple(values[1:])
    if min(sizes) < 1:
        return None
    words = KPartiteHypergraph.empty(sizes).words.copy()
    for _, chunk in _line_chunks(raw, start, stop):
        parsed = _load_rows(chunk, [("edge", np.int64, (len(sizes),))])
        if parsed is None:
            return None
        edges = parsed["edge"]
        if not _in_range(edges, sizes) or _rows_text(list(edges.T)) != chunk:
            return None
        set_edges(words, edges)
    h = KPartiteHypergraph(sizes, words)
    return h if h.edge_count == raw.count(b"\n", start, stop) else None


def _khg_by_line(raw: bytes) -> KPartiteHypergraph:
    lines = _data_lines(raw)
    if not lines:
        raise FormatError(0, "empty file, expected a khg header")
    offset, header = lines[0]
    tokens = header.split()
    if tokens[0] != "khg" or len(tokens) < 2:
        raise FormatError(offset, "expected header 'khg k n_1 ... n_k'")
    k = _ints(offset, tokens[1:2])[0]
    sizes = _ints(offset, tokens[2:], count=k)
    if k < 2:
        raise FormatError(offset, "need at least two parts")
    if min(sizes) < 1:
        raise FormatError(offset, f"part sizes must be positive: {tuple(sizes)}")
    edges = []
    seen = set()
    for offset, text in lines[1:]:
        edge = _ints(offset, text.split(), count=k)
        for i, v in enumerate(edge):
            if not 0 <= v < sizes[i]:
                raise FormatError(offset, f"vertex {v} out of range for part {i}")
        key = tuple(edge)
        if key in seen:
            raise FormatError(offset, f"duplicate edge {key}")
        seen.add(key)
        edges.append(edge)
    return KPartiteHypergraph.from_edges(sizes, edges)


# --- .w3g -----------------------------------------------------------------


def write_w3g(path, weighted: WeightedTripartite, *, digest=None):
    """Write the header and each nonzero cell, formatted a group of
    first-part slabs at a time from ``weighted.slab``, so a layered
    relation never builds its n^3 ``weights``."""
    n0, n1, n2 = weighted.part_sizes
    step = _per_chunk(n1 * n2)

    def slabs(lo):
        block = np.stack([weighted.slab(i) for i in range(lo, min(lo + step, n0))])
        a, b, c = np.nonzero(block != 0.0)
        return _rows_text([a + lo, b, c, block[a, b, c]])

    header = _sizes_header("w3g", weighted.part_sizes).encode("ascii")
    _atomic_write(path, itertools.chain([header], map(slabs, range(0, n0, step))),
                  digest)


def read_w3g(path) -> WeightedTripartite:
    raw = _read_ascii(path)
    weighted = _w3g_fast(raw)
    return _w3g_by_line(raw) if weighted is None else weighted


def _w3g_fast(raw: bytes):
    split = _canonical_split(raw, 1)
    if split is None:
        return None
    header, start, stop = split
    sizes = _header_ints(header, "w3g")
    if sizes is None or len(sizes) != 3 or min(sizes) < 0:
        return None
    weights = np.zeros(tuple(sizes))
    last = np.empty((0, 3), dtype=np.int64)
    for _, chunk in _line_chunks(raw, start, stop):
        parsed = _load_rows(chunk, [("cell", np.int64, (3,)), ("weight", np.float64)])
        if parsed is None:
            return None
        cells, w = parsed["cell"], parsed["weight"]
        if (not _in_range(cells, sizes) or not np.all((w >= 0.0) & (w <= 1.0))
                or not _increasing(np.concatenate([last, cells]))
                or _rows_text([*cells.T, w]) != chunk):
            return None
        last = cells[-1:]
        weights[tuple(cells.T)] = w
    return WeightedTripartite(weights)


def _w3g_by_line(raw: bytes) -> WeightedTripartite:
    lines = _data_lines(raw)
    if not lines:
        raise FormatError(0, "empty file, expected a w3g header")
    offset, header = lines[0]
    tokens = header.split()
    if tokens[0] != "w3g":
        raise FormatError(offset, "expected header 'w3g nA nB nC'")
    sizes = _ints(offset, tokens[1:], count=3)
    if min(sizes) < 0:
        raise FormatError(offset, f"part sizes must be nonnegative: {tuple(sizes)}")
    weights = np.zeros(tuple(sizes))
    seen = set()
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
        key = tuple(cell)
        if key in seen:
            raise FormatError(offset, f"duplicate cell {key}")
        seen.add(key)
        weights[key] = w
    return WeightedTripartite(weights)


# --- .part ----------------------------------------------------------------


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
    write_text(path, "\n".join(rows) + "\n", digest=digest)


def read_part(path) -> LayeredPartition:
    lines = _content_lines(_read_ascii(path))
    data = [(o, t) for o, t in lines if not t.startswith("#")]
    if not data:
        raise FormatError(0, "empty file, expected a part header")
    offset, header = data[0]
    tokens = header.split()
    if tokens[0] != "part" or len(tokens) != 2:
        raise FormatError(offset, "expected header 'part k'")
    k = _ints(offset, tokens[1:])[0]
    if k < 1:
        raise FormatError(offset, "need at least one part")
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
        if meta is not None and meta["part"] not in (None, i):
            raise FormatError(offset, f"label line {i} is marked part {meta['part']}")
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


# --- .audit ---------------------------------------------------------------


def _audit_header(eps, passed, mass, normalized_mass, weighted) -> str:
    verdict = "pass" if passed else "fail"
    return (f"audit block {float(eps)!r} {verdict} {mass}\n"
            f"#normalized {float(normalized_mass)!r}\n"
            f"#weighted {int(weighted)}\n")


def _audit_columns(labels, densities, ok) -> list:
    return [*np.asarray(labels, dtype=np.int64).T,
            np.asarray(densities, dtype=np.float64), np.asarray(ok, dtype=bool)]


def write_audit(path, report: HomogeneityReport, *, digest=None):
    """Write the header and one row per audited tuple.

    The rows are formatted a chunk of whole leading blocks at a time,
    from ``HomogeneityReport._label_chunks``, and each piece goes to
    the file before the next is made, so neither the full label array,
    the full byte grid of ``_rows_text`` nor the whole body is held.
    """
    header = _audit_header(report.eps, report.passed, report.mass,
                           report.normalized_mass, report.weighted)

    def pieces():
        yield header.encode("ascii")
        at = 0
        for labels in report._label_chunks(_per_chunk(1)):
            rows = slice(at, at + len(labels))
            yield _rows_text(_audit_columns(
                labels, report.densities[rows], report.ok[rows]))
            at = rows.stop

    _atomic_write(path, pieces(), digest)


def read_audit(path) -> HomogeneityReport:
    raw = _read_ascii(path)
    report = _audit_fast(raw)
    return _audit_by_line(raw) if report is None else report


def _audit_fast(raw: bytes):
    split = _canonical_split(raw, 3)
    if split is None:
        return None
    header, start, stop = split
    try:
        first, second, third = header.splitlines()
        _, _, eps, verdict, mass = first.split(" ")
        _, normalized = second.split(" ")
        _, weighted = third.split(" ")
        eps, normalized = float(eps), float(normalized)
        scalars = {"eps": eps, "passed": verdict == "pass",
                   "mass": int(mass), "normalized_mass": normalized,
                   "weighted": bool(int(weighted))}
    except ValueError:
        return None
    if (_audit_header(**scalars) != header
            or scalars["passed"] != _passes(normalized, eps)):
        return None
    n = raw.count(b"\n", start, stop)
    width = raw.count(b" ", start, raw.find(b"\n", start)) - 1 if n else 0
    if width < 1:
        return None
    densities = np.empty(n)
    ok = np.empty(n, dtype=bool)
    dtype = [("labels", np.int64, (width,)), ("density", np.float64),
             ("verdict", "S4")]
    last = np.empty((0, width), dtype=np.int64)
    blocks = [np.empty(0, dtype=np.int64)] * width
    for rows, chunk in _line_chunks(raw, start, stop):
        parsed = _load_rows(chunk, dtype)
        if parsed is None:
            return None
        labels = parsed["labels"]
        densities[rows] = parsed["density"]
        np.equal(parsed["verdict"], b"pass", out=ok[rows])
        if (labels.min() < 0 or not _increasing(np.concatenate([last, labels]))
                or not np.array_equal(homogeneous(densities[rows], eps), ok[rows])
                or _rows_text(_audit_columns(labels, densities[rows],
                                             ok[rows])) != chunk):
            return None
        last = labels[-1:]
        for j, column in enumerate(labels.T):
            new = column[~np.isin(column, blocks[j])]  # most runs add none
            if new.size:
                blocks[j] = np.union1d(blocks[j], new)
    if (n != math.prod(b.size for b in blocks)
            or (scalars["mass"] == 0) != ok.all()):
        return None
    return HomogeneityReport(**scalars, densities=densities, ok=ok,
                             blocks=tuple(blocks))


def _audit_by_line(raw: bytes) -> HomogeneityReport:
    lines = _content_lines(raw)
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
    if passed != _passes(normalized, eps):
        raise FormatError(offset, f"verdict {tokens[3]} contradicts normalized "
                                  f"mass {normalized!r} at eps {eps!r}")

    labels, densities, oks = [], [], []
    for offset, text in data[1:]:
        tokens = text.split()
        if len(tokens) < 3:
            raise FormatError(offset, "expected 'labels... density verdict'")
        if tokens[-1] not in ("pass", "fail"):
            raise FormatError(offset, f"verdict must be pass or fail, got {tokens[-1]!r}")
        try:
            density = float(tokens[-2])
        except ValueError:
            raise FormatError(offset, f"bad density {tokens[-2]!r}") from None
        row = _ints(offset, tokens[:-2])
        if labels and len(row) != len(labels[0]):
            raise FormatError(offset, f"expected {len(labels[0])} block labels")
        if min(row) < 0:
            raise FormatError(offset, "block labels must be nonnegative")
        if labels and row <= labels[-1]:
            kind = "repeats" if row == labels[-1] else "comes before"
            raise FormatError(offset, f"block tuple {tuple(row)} {kind} "
                                      f"the one above")
        if (tokens[-1] == "pass") != homogeneous(density, eps):
            raise FormatError(offset, f"verdict {tokens[-1]} contradicts "
                                      f"density {density!r} at eps {eps!r}")
        labels.append(row)
        densities.append(density)
        oks.append(tokens[-1] == "pass")
    blocks = [sorted(set(column)) for column in zip(*labels)]
    expected = math.prod(map(len, blocks))
    if len(labels) != expected:
        # at the first row out of its place in the product, or at the
        # end of the body if only rows after the last are missing
        offset = next((o for (o, _), row, want in zip(
            data[1:], labels, itertools.product(*blocks)) if tuple(row) != want),
            raw.find(b"\n", data[-1][0]) + 1 or len(raw))
        raise FormatError(offset, f"{len(labels)} block tuples, expected the "
                                  f"{expected} of the product of their labels"
                          if labels else "expected at least one block tuple")
    if (mass == 0) != all(oks):
        raise FormatError(data[0][0], f"mass {mass} but " + (
            "a block tuple fails" if mass == 0 else "every block tuple passes"))
    return HomogeneityReport(
        eps=eps,
        passed=passed,
        mass=mass,
        normalized_mass=normalized,
        weighted=weighted,
        densities=np.array(densities, dtype=np.float64),
        ok=np.array(oks, dtype=bool),
        blocks=tuple(np.array(b, dtype=np.int64) for b in blocks),
    )


# --- .links ---------------------------------------------------------------


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
    """Store a pin-keyed table of link partitions with their bound r."""
    rows = [f"links {int(r)}"]
    for (pins, side) in sorted(table, key=lambda key: (key[0], key[1])):
        p = table[(pins, side)]
        part = "-" if p.part is None else str(p.part)
        labels = " ".join(str(v) for v in p.labels)
        rows.append(
            f"{_pins_token(pins)} {side} {p.n_blocks} "
            f"{int(p.has_exceptional)} {int(p.equitable)} {part} {labels}"
        )
    write_text(path, "\n".join(rows) + "\n", digest=digest)


def read_links(path) -> tuple:
    """(table, r) as ``write_links`` stored them.

    The whole file is validated; ``homogenize --links`` uses only r.
    """
    lines = _data_lines(_read_ascii(path))
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
