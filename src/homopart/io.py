"""Flat text formats for graphs, partitions, audits, and link tables.

All files are ASCII with LF line endings. Lines starting with ``#``
are comments and are skipped by every reader, as are blank lines, which
hold only spaces, tabs and CRs; writers use comments for
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
  labels (label 0 is the exceptional block when flagged). A
  ``#meta i ...`` line carries the flags of label line i and stands
  right before it, with only comments and blank lines between.
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

One reader per format. The readers of those three formats take the
header from the first line that is neither blank nor a comment, and
leave the blank and comment lines right after it and at the end of
the file out of the body, which they read a bounded run of whole lines
at a time. ``_canonical_columns`` recognizes a run that is byte for
byte what ``_rows_text`` writes, as every run the writers write is,
and converts it whole from its bytes: integers by digit arithmetic,
verdicts by their four bytes and floats by one ``float`` call per
distinct token, which ``repr`` must give back. Any other run (a
comment or blank line between rows, CRLF, extra spaces, ``+1``,
``1_0``, an integer of more than 18 digits) goes line by line through
``_token_rows``, which only splits and converts fields. Each rule of a
format then runs once on the run's arrays.

Parse errors raise FormatError carrying the byte offset of the
offending line. A file with one fault gets the same error whichever
way its runs are read. With several, the first run with a fault names
one: a field that does not convert (or a vertex or label beyond 64
bits) before any row rule, else the first offending row, and in it
the rule checked first. The audit's product, mass and header verdict
rules come last. Writes go through a temp file and an atomic rename.
"""

from __future__ import annotations

import itertools
import math
import os
import re
import tempfile

import numpy as np

from . import bitops
from .auditor import HomogeneityReport, _passes
from .errors import FormatError
from .hypercore import KPartiteHypergraph, WeightedTripartite
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
    ``_data_lines`` drops the comments. A blank line holds only spaces,
    tabs and CRs, as in ``_SKIPPED``."""
    lines = []
    offset = 0
    for chunk in raw.split(b"\n"):
        text = chunk.decode("ascii").rstrip("\r")
        if text.strip(" \t\r"):
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
    at = 0 if raw.startswith(stamp) else raw.find(b"\n" + stamp) + 1
    if not raw.startswith(stamp, at):
        return None
    end = raw.find(b"\n", at)
    tokens = raw[at:None if end < 0 else end].decode("ascii").split()
    if len(tokens) < 3:
        raise FormatError(at, "manifest stamp names no digest")
    return tokens[2]


def _ints(offset, tokens, count=None):
    if count is not None and len(tokens) != count:
        raise FormatError(offset, f"expected {count} fields, got {len(tokens)}")
    try:
        return [int(t) for t in tokens]
    except ValueError as exc:
        raise FormatError(offset, f"bad integer: {exc}") from None


def _is_key(text, key) -> bool:
    """Whether ``text`` is a ``key`` comment line: its first token is
    ``key`` exactly, so ``#metadata ...`` is no ``#meta`` line."""
    return text.split(maxsplit=1)[:1] == [key]


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


def _line_chunks(raw: bytes, start: int, stop: int):
    """(offset, bytes) of consecutive runs of whole lines covering
    ``raw[start:stop]``, which starts a line and ends one. Each run is
    at most ``_CHUNK_BYTES`` long unless it is one longer line."""
    while start < stop:
        end = raw.rfind(b"\n", start, min(start + _CHUNK_BYTES, stop)) + 1
        if not end:
            end = raw.find(b"\n", start, stop) + 1 or stop
        yield start, raw[start:end]
        start = end


def _per_chunk(cells: int) -> int:
    """How many units of ``cells`` cells each (fibers, slabs, audit
    rows) a writer formats at a time: ``_CHUNK_BYTES // 16`` cells,
    and one unit at least."""
    return max(1, _CHUNK_BYTES // 16 // max(cells, 1))


def _sizes_header(keyword: str, values) -> str:
    return " ".join([keyword, *map(str, values)]) + "\n"


# --- reading: one header, then each run of the body once ------------------

# consecutive blank lines (only spaces, tabs and CRs) and comment lines
_SKIPPED = re.compile(rb"(?:(?:#[^\n]*|[ \t\r]*)(?:\n|\Z))*")


def _layout(raw: bytes, expected: str):
    """(offset, tokens, start, stop): the header is the first line that
    is not blank or a comment, at ``offset`` and split into ``tokens``.
    The body ``raw[start:stop]`` lies between the blank and comment
    lines right after it and those that end the file."""
    offset = _SKIPPED.match(raw).end()
    if offset == len(raw):
        raise FormatError(0, f"empty file, expected {expected} header")
    end = raw.find(b"\n", offset) + 1 or len(raw)
    stop = len(raw)
    while stop > end:
        line = max(raw.rfind(b"\n", end, stop - 1) + 1, end)
        if not _SKIPPED.fullmatch(raw, line, stop):
            break
        stop = line
    start = _SKIPPED.match(raw, end, stop).end()
    return offset, raw[offset:end].decode("ascii").split(), start, stop


_SPACE, _LF, _MINUS, _ZERO = b" \n-0"
_PASS, _FAIL = np.frombuffer(b"passfail", dtype=np.uint32)
_FLOAT_REPR_MAX = len(repr(-2.2250738585072014e-308))  # 24, the longest


def _canonical_columns(run: bytes, kinds: str):
    """The columns of a run, exactly when ``_rows_text`` of them is the
    run, else None. ``kinds`` has a numpy kind letter per field: ``i``
    for int64, ``f`` for float64, ``b`` for a pass/fail verdict.

    The run is cut at its spaces and LFs: each line must hold
    ``len(kinds)`` non-empty fields and end with an LF. An integer is
    ``0`` or ``-?[1-9][0-9]*`` of at most 18 digits, converted by digit
    arithmetic. A float is a token of at most 24 bytes, the longest
    ``repr``, that ``repr`` gives back from its ``float``, which is
    called once per distinct token. Every temporary is an array over
    the run's bytes, tokens or rows, at most 24 bytes a token, so a
    small multiple of the run's size bounds it.
    """
    text = np.frombuffer(run, dtype=np.uint8)
    cut = (text == _SPACE) | (text == _LF)
    ends = np.flatnonzero(cut)
    rows = len(ends) // len(kinds)
    if (not run.endswith(b"\n") or len(ends) != rows * len(kinds)
            or np.count_nonzero(text == _LF) != rows or cut[0]
            or (cut[1:] & cut[:-1]).any() or not text.all()):
        return None  # a NUL would pass for the padding of a float token
    ends = ends.reshape(rows, len(kinds)).T.copy()
    if (text.take(ends[-1]) != _LF).any():
        return None
    columns = []
    for j, kind in enumerate(kinds):
        starts = ends[j - 1] + 1 if j else np.concatenate(([0], ends[-1, :-1] + 1))
        column = _CANONICAL[kind](text, starts, ends[j])
        if column is None:
            return None
        columns.append(column)
    return columns


def _canonical_ints(text, starts, ends):
    """Horner's rule over each token's last q bytes, q falling to 1."""
    negative = text.take(starts) == _MINUS
    first = starts + negative.view(np.uint8)
    digits = ends - first
    width = int(digits.max())
    if width > 18 or not digits.all():
        return None
    if ((text.take(first) == _ZERO) & ((digits > 1) | negative)).any():
        return None
    values = np.zeros(len(ends), dtype=np.int64)
    for q in range(width, 0, -1):
        digit = text.take(ends - q) - _ZERO
        digit *= digits >= q
        if (digit > 9).any():
            return None
        values *= 10
        values += digit
    values[negative] *= -1
    return values


def _token_grid(text, starts, ends, width):
    """Each token's bytes in a row of ``width`` bytes, NUL-padded."""
    sizes = ends - starts
    grid = np.zeros((len(starts), width), dtype=np.uint8)
    for q in range(width):
        grid[:, q] = text.take(np.minimum(starts + q, ends)) * (sizes > q)
    return grid


def _canonical_verdicts(text, starts, ends):
    if (ends - starts != 4).any():
        return None
    words = _token_grid(text, starts, ends, 4).view(np.uint32)[:, 0]
    passed = words == _PASS
    return passed if (passed | (words == _FAIL)).all() else None


def _canonical_floats(text, starts, ends):
    """Each token is keyed by its bytes, so ``float`` and ``repr`` see
    each distinct token once. A token longer than any float's ``repr``
    gives None before the key grid, whose size grows with the longest
    token, is built. The keys are NUL-padded to whole big-endian 64-bit
    words, so sorting their word rows sorts the tokens; a plain
    ``np.unique`` would import ``numpy.ma`` (see ``_sorted_distinct``)."""
    width = int((ends - starts).max())
    if width > _FLOAT_REPR_MAX:
        return None
    grid = np.zeros((len(starts), -(-width // 8) * 8), dtype=np.uint8)
    grid[:, :width] = _token_grid(text, starts, ends, width)
    words = grid.view(">u8")
    order = np.lexsort(words.T[::-1])
    first = np.ones(len(order), dtype=bool)
    first[1:] = (words[order[1:]] != words[order[:-1]]).any(axis=1)
    distinct = grid[order[first]].view(f"S{grid.shape[1]}")[:, 0]
    values = np.empty(len(distinct))
    for i, token in enumerate(distinct.tolist()):
        try:
            value = float(token)
        except ValueError:
            return None
        if repr(value).encode() != token:
            return None
        values[i] = value
    index = np.empty(len(order), dtype=np.intp)
    index[order] = np.cumsum(first) - 1
    return values[index]


_CANONICAL = {"i": _canonical_ints, "f": _canonical_floats, "b": _canonical_verdicts}


def _token_rows(run: bytes, offset: int, parse, comment=None):
    """(offsets, rows) of a run at ``offset``, a line at a time: each
    row is ``parse(offset, fields)``, which converts the fields or
    raises, blank lines are skipped and comments go to ``comment``."""
    offsets, rows = [], []
    for at, text in _content_lines(run):
        if not text.startswith("#"):
            offsets.append(offset + at)
            rows.append(parse(offset + at, text.split()))
        elif comment is not None:
            comment(offset + at, text)
    return offsets, rows


def _read_runs(raw: bytes, start: int, stop: int, kinds, parse, take,
               comment=None):
    """Call ``take(at, columns)`` on each run of the body ``raw[start:stop]``
    that holds rows, where ``columns`` are its fields as arrays and
    ``at(i)`` is the offset of its row i. A run that
    ``_canonical_columns`` reads as fields of ``kinds(run)`` is converted
    whole; any other goes through ``_token_rows``."""
    for offset, run in _line_chunks(raw, start, stop):
        columns = _canonical_columns(run, kinds(run))
        if columns is not None:
            take(lambda i: offset + sum(len(line) + 1 for line in run.split(b"\n")[:i]),
                 columns)
            continue
        offsets, rows = _token_rows(run, offset, parse, comment)
        if rows:
            take(offsets.__getitem__, [np.array(c) for c in zip(*rows)])


def _int64s(offset, tokens, count=None, sizes=()):
    """The integers of ``tokens``, each within 64 bits. As vertices of
    parts of ``sizes``, one beyond lies outside its part, and says so."""
    values = _ints(offset, tokens, count)
    if any(not -1 << 63 <= v < 1 << 63 for v in values):
        outside = [(v, p) for p, (v, n) in enumerate(zip(values, sizes))
                   if not 0 <= v < n]
        raise FormatError(offset, _outside(*outside[0]) if outside
                          else "bad integer: beyond 64 bits")
    return values


def _sized(offset, sizes, make):
    """``make()``, the array that header ``sizes`` call for; sizes too
    large for one numpy array raise ``FormatError`` at the header."""
    try:
        return make()
    except ValueError:
        raise FormatError(offset, f"part sizes too large: {tuple(sizes)}") from None


def _first(bad: np.ndarray) -> int:
    """The index of the first True of ``bad``, or its length."""
    return int(np.argmax(bad)) if bad.any() else len(bad)


def _check(at, *rules):
    """Raise at the first row of a run that breaks one of ``rules``,
    (bad, message) pairs in the order a row is checked: ``bad`` flags
    the rows of a prefix of the run, ``message(i)`` describes row i."""
    i, n = min((_first(bad), n) for n, (bad, _) in enumerate(rules))
    if i < len(rules[n][0]):
        raise FormatError(at(i), rules[n][1](i))


def _row(columns, i) -> tuple:
    return tuple(int(column[i]) for column in columns)


def _in_range(columns, sizes):
    """The (bad, message) rule that each vertex lies in its part."""
    fits = np.stack([(c >= 0) & (c < n) for c, n in zip(columns, sizes)])

    def message(i):
        part = int(np.argmin(fits[:, i]))
        return _outside(int(columns[part][i]), part)
    return ~fits.all(axis=0), message


def _outside(vertex, part) -> str:
    return f"vertex {vertex} out of range for part {part}"


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-d array in ascending order, by one
    sort. Under numpy 2.4 a plain ``np.unique`` or ``np.union1d``
    imports ``numpy.ma``, 1.5-1.8 MB of RSS for nothing used here."""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _repeats(keys: np.ndarray) -> np.ndarray:
    """Per key, whether an earlier key of the run equals it."""
    if np.all(keys[1:] > keys[:-1]):  # rows in file order need no sort
        return np.zeros(len(keys), dtype=bool)
    return ~np.isin(np.arange(len(keys)), np.unique(keys, return_index=True)[1])


def _increasing(columns, last) -> np.ndarray:
    """Per row of the int64 ``columns``, 1, 0 or -1 as it lies above,
    on or below the row before in lexicographic order: the sign of the
    step's first non-zero column. The first row is compared with the
    tuple ``last``, and when that is None it counts as above."""
    before = [c[:1] - 1 for c in columns] if last is None else [[v] for v in last]
    steps = [np.sign(np.diff(c, prepend=b)) for c, b in zip(columns, before)]
    up = steps[-1]
    for step in steps[-2::-1]:
        up = np.where(step != 0, step, up)
    return up


# --- .khg -----------------------------------------------------------------


def write_khg(path, h: KPartiteHypergraph, *, digest=None):
    header = _sizes_header("khg", (h.k, *h.part_sizes)).encode("ascii")
    step = _per_chunk(h.part_sizes[-1])
    fibers = range(0, len(h.fiber_rows()), step)
    _atomic_write(path, itertools.chain([header], (
        _rows_text(h.edge_columns(f, f + step)) for f in fibers)), digest)


def read_khg(path) -> KPartiteHypergraph:
    raw = _read_ascii(path)
    offset, tokens, start, stop = _layout(raw, "a khg")
    if tokens[:1] != ["khg"] or len(tokens) < 2:
        raise FormatError(offset, "expected header 'khg k n_1 ... n_k'")
    k = _int64s(offset, tokens[1:2])[0]
    sizes = _int64s(offset, tokens[2:], count=k)
    if k < 2:
        raise FormatError(offset, "need at least two parts")
    if min(sizes) < 1:
        raise FormatError(offset, f"part sizes must be positive: {tuple(sizes)}")
    words = _sized(offset, sizes,
                   lambda: KPartiteHypergraph.empty(sizes).words.copy())
    flat = words.reshape(-1)

    def take(at, edges):
        vertex = _in_range(edges, sizes)
        fine = _first(vertex[0])
        *fiber, last = (e[:fine] for e in edges)
        row = np.ravel_multi_index(fiber, sizes[:-1])
        column, mask = bitops.locate_bit(last)
        word = row * words.shape[-1] + column
        repeat = ((flat[word] & mask) != 0) | _repeats(row * sizes[-1] + last)
        _check(at, vertex, (repeat, lambda i: f"duplicate edge {_row(edges, i)}"))
        np.bitwise_or.at(flat, word, mask)

    _read_runs(raw, start, stop, lambda run: "i" * k,
               lambda at, tokens: _int64s(at, tokens, k, sizes), take)
    return KPartiteHypergraph(sizes, words)


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
    """Rows may come in any order. A cell holds -1.0 until a row sets
    it, so a repeat is a row whose cell no longer does."""
    raw = _read_ascii(path)
    offset, tokens, start, stop = _layout(raw, "a w3g")
    if tokens[:1] != ["w3g"]:
        raise FormatError(offset, "expected header 'w3g nA nB nC'")
    sizes = _int64s(offset, tokens[1:], count=3)
    if min(sizes) < 0:
        raise FormatError(offset, f"part sizes must be nonnegative: {tuple(sizes)}")
    weights = _sized(offset, sizes, lambda: np.full(sizes, -1.0))
    flat = weights.reshape(-1)

    def parse(at, tokens):
        if len(tokens) != 4:
            raise FormatError(at, f"expected 'a b c w', got {len(tokens)} fields")
        cell = _int64s(at, tokens[:3], sizes=sizes)
        try:
            return (*cell, float(tokens[3]))
        except ValueError:
            raise FormatError(at, f"bad weight {tokens[3]!r}") from None

    def take(at, columns):
        *cell, w = columns
        vertex = _in_range(cell, sizes)
        outside = ~((w >= 0.0) & (w <= 1.0))
        fine = min(_first(vertex[0]), _first(outside))
        keys = np.ravel_multi_index(tuple(c[:fine] for c in cell), sizes)
        _check(at, vertex, (outside, lambda i: f"weight {float(w[i])} outside [0, 1]"),
               ((flat[keys] != -1.0) | _repeats(keys),
                lambda i: f"duplicate cell {_row(cell, i)}"))
        flat[keys] = w

    _read_runs(raw, start, stop, lambda run: "iiif", parse, take)
    for slab in weights:
        slab[slab == -1.0] = 0.0
    return WeightedTripartite(weights)


# --- .part ----------------------------------------------------------------


def _meta_line(i: int, p: PartPartition) -> str:
    part = "-" if p.part is None else str(p.part)
    return (f"#meta {i} part={part} exceptional={int(p.has_exceptional)} "
            f"equitable={int(p.equitable)} nblocks={p.n_blocks}")


def _parse_meta(offset, text):
    """(index, fields) of a ``#meta`` line: the label line it names and
    the ``PartPartition`` keywords it carries."""
    tokens = text.split()
    index = _int64s(offset, tokens[1:2], count=1)[0]
    fields = {}
    for token in tokens[2:]:
        key, _, value = token.partition("=")
        fields[key] = value
    try:
        part = fields["part"]
        exceptional, equitable, n_blocks = _int64s(
            offset, [fields[key] for key in ("exceptional", "equitable", "nblocks")])
    except KeyError as exc:
        raise FormatError(offset, f"bad #meta line: {exc}") from None
    return index, {
        "part": None if part == "-" else _int64s(offset, [part])[0],
        "has_exceptional": bool(exceptional),
        "equitable": bool(equitable),
        "n_blocks": n_blocks,
    }


def _partition(offset, labels, **fields) -> PartPartition:
    """``PartPartition(labels, **fields)``, whose ``ValueError`` becomes
    a ``FormatError`` at ``offset``."""
    try:
        return PartPartition(labels, **fields)
    except ValueError as exc:
        raise FormatError(offset, str(exc)) from None


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
    if tokens[:1] != ["part"] or len(tokens) != 2:
        raise FormatError(offset, "expected header 'part k'")
    k = _int64s(offset, tokens[1:])[0]
    if k < 1:
        raise FormatError(offset, "need at least one part")
    if len(data) - 1 != k:
        raise FormatError(offset, f"expected {k} label lines, found {len(data) - 1}")

    # each #meta line describes the label line right after it, and
    # names that line's index
    metas, i = {}, 0
    for at, text in lines:
        if _is_key(text, "#meta"):
            index, fields = _parse_meta(at, text)
            if i == k:
                raise FormatError(at, f"#meta {index} has no label line after it")
            if i in metas:
                raise FormatError(at, f"#meta {index} is a second #meta "
                                      f"before label line {i}")
            if index != i:
                raise FormatError(at, f"#meta {index} stands before label line {i}")
            metas[i] = fields
        elif not text.startswith("#") and at != offset:
            i += 1

    parts = []
    for i, (offset, text) in enumerate(data[1:]):
        labels = _int64s(offset, text.split())
        if any(v < 0 for v in labels):
            raise FormatError(offset, "labels must be nonnegative")
        fields = metas.get(i, {"part": i})
        if fields["part"] not in (None, i):
            raise FormatError(offset, f"label line {i} is marked part {fields['part']}")
        parts.append(_partition(offset, labels, **fields))
    return LayeredPartition(parts)


# --- .audit ---------------------------------------------------------------


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
    verdict = "pass" if report.passed else "fail"
    header = (f"audit block {float(report.eps)!r} {verdict} {report.mass}\n"
              f"#normalized {float(report.normalized_mass)!r}\n"
              f"#weighted {int(report.weighted)}\n")

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
    """``#normalized`` and ``#weighted`` count wherever they stand, the
    last of each winning. As in every audit, eps lies in [0, 1/2), the
    mass is not negative, the normalized mass lies in [0, 1] and
    ``#weighted`` is 0 or 1."""
    raw = _read_ascii(path)
    offset, tokens, start, stop = _layout(raw, "an audit")
    if tokens[:1] != ["audit"] or len(tokens) != 5:
        raise FormatError(offset, "expected header 'audit block eps verdict mass'")
    try:
        eps = float(tokens[2])
    except ValueError:
        raise FormatError(offset, f"bad eps {tokens[2]!r}") from None
    if not 0.0 <= eps < 0.5:
        raise FormatError(offset, f"eps {eps!r} outside [0, 1/2)")
    if tokens[3] not in ("pass", "fail"):
        raise FormatError(offset, f"verdict must be pass or fail, got {tokens[3]!r}")
    mass = _int64s(offset, tokens[4:5])[0]
    if mass < 0:
        raise FormatError(offset, f"mass {mass} is negative")
    scalars = {"eps": eps, "passed": tokens[3] == "pass", "mass": mass,
               "normalized_mass": 0.0, "weighted": False}

    def comment(at, text):
        if _is_key(text, "#normalized"):
            value = _comment_value(at, text, float)
            if not 0.0 <= value <= 1.0:
                raise FormatError(at, f"normalized mass {value!r} outside [0, 1]")
            scalars["normalized_mass"] = value
        elif _is_key(text, "#weighted"):
            value = _comment_value(at, text, int)
            if value not in (0, 1):
                raise FormatError(at, f"#weighted must be 0 or 1, got {value}")
            scalars["weighted"] = bool(value)

    def parse(at, tokens):
        nonlocal width
        if len(tokens) < 3:
            raise FormatError(at, "expected 'labels... density verdict'")
        if tokens[-1] not in ("pass", "fail"):
            raise FormatError(at, f"verdict must be pass or fail, got {tokens[-1]!r}")
        try:
            density = float(tokens[-2])
        except ValueError:
            raise FormatError(at, f"bad density {tokens[-2]!r}") from None
        labels = _int64s(at, tokens[:-2])
        width = width or len(labels)
        if len(labels) != width:
            raise FormatError(at, f"expected {width} block labels")
        return (*labels, density, tokens[-1] == "pass")

    def kinds(run):
        labels = width or max(1, run.count(b" ", 0, run.find(b"\n")) - 1)
        return "i" * labels + "fb"

    n = raw.count(b"\n", start, stop) + (not raw.endswith(b"\n", start, stop))
    densities, ok = np.empty(n), np.empty(n, dtype=bool)
    count, width, last, blocks = 0, None, None, []

    def take(at, columns):
        nonlocal count, width, last
        *labels, density, verdict = columns
        step = _increasing(labels, last)
        _check(at, (np.logical_or.reduce([c < 0 for c in labels]),
                    lambda i: "block labels must be nonnegative"),
               (step < 1, lambda i: f"block tuple {_row(labels, i)} " + (
                   "comes before" if step[i] else "repeats") + " the one above"),
               (verdict != homogeneous(density, eps),
                lambda i: f"verdict {'pass' if verdict[i] else 'fail'} contradicts"
                          f" density {float(density[i])!r} at eps {eps!r}"))
        densities[count:count + len(density)] = density
        ok[count:count + len(density)] = verdict
        count, width, last = count + len(density), len(labels), _row(labels, -1)
        blocks[:] = blocks or [np.empty(0, dtype=np.int64)] * width
        for j, column in enumerate(labels):
            new = column[~np.isin(column, blocks[j])]  # most runs add none
            if new.size:
                blocks[j] = _sorted_distinct(np.concatenate((blocks[j], new)))

    for at, text in _content_lines(raw[:start]):
        comment(at, text)
    _read_runs(raw, start, stop, kinds, parse, take, comment)
    for at, text in _content_lines(raw[stop:]):
        comment(stop + at, text)
    if count < n:
        densities, ok = densities[:count].copy(), ok[:count].copy()

    normalized = scalars["normalized_mass"]
    if scalars["passed"] != _passes(normalized, eps):
        raise FormatError(offset, f"verdict {tokens[3]} contradicts normalized "
                                  f"mass {normalized!r} at eps {eps!r}")
    expected = math.prod(b.size for b in blocks)
    if count != expected:
        message = (f"{count} block tuples, expected the {expected} of the "
                   f"product of their labels" if count
                   else "expected at least one block tuple")
        done = 0

        def place(at, columns):
            # at the first row out of its place in the product, else at the end
            nonlocal done
            index = np.unravel_index(done + np.arange(len(columns[0])),
                                     [b.size for b in blocks])
            wrong = np.logical_or.reduce([c != b[i] for c, b, i in
                                          zip(columns, blocks, index)])
            if wrong.any():
                raise FormatError(at(_first(wrong)), message)
            done += len(wrong)

        _read_runs(raw, start, stop, kinds, parse, place)
        raise FormatError(stop, message)
    if (mass == 0) != ok.all():
        raise FormatError(offset, f"mass {mass} but " + (
            "a block tuple fails" if mass == 0 else "every block tuple passes"))
    return HomogeneityReport(**scalars, densities=densities, ok=ok,
                             blocks=tuple(blocks))


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
        pins.append(tuple(_int64s(offset, [part, vertex])))
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

    The whole file is validated; ``homogenize --links`` uses none of it.
    """
    lines = _data_lines(_read_ascii(path))
    if not lines:
        raise FormatError(0, "empty file, expected a links header")
    offset, header = lines[0]
    tokens = header.split()
    if tokens[:1] != ["links"] or len(tokens) != 2:
        raise FormatError(offset, "expected header 'links r'")
    r = _int64s(offset, tokens[1:])[0]
    table = {}
    for offset, text in lines[1:]:
        tokens = text.split()
        if len(tokens) < 7:
            raise FormatError(
                offset, "expected 'pins side nblocks exceptional equitable part labels...'"
            )
        pins = _parse_pins(offset, tokens[0])
        side, n_blocks, exceptional, equitable = _int64s(offset, tokens[1:5])
        part = None if tokens[5] == "-" else _int64s(offset, tokens[5:6])[0]
        partition = _partition(
            offset, _int64s(offset, tokens[6:]), part=part, n_blocks=n_blocks,
            has_exceptional=bool(exceptional), equitable=bool(equitable))
        key = (pins, side)
        if key in table:
            raise FormatError(offset, f"duplicate entry for pins={pins} side={side}")
        table[key] = partition
    return table, r
