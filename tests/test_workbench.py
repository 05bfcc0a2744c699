"""Flat-file formats, run manifests, and the CLI driver."""

import contextlib
import dataclasses
import hashlib
import itertools
import json
import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homopart import (
    HomogeneityReport,
    InstanceSpec,
    KPartiteHypergraph,
    LayeredPartition,
    PartPartition,
    RunManifest,
    WeightedTripartite,
    build_sequence,
    build_weighted,
    file_digest,
    generate,
    homogeneity_audit,
    link,
    slicewise_vc,
)
from homopart import io as hio
from homopart.auditor import _passes
from homopart.cli import main
from homopart.errors import FormatError
from homopart.partitions import homogeneous


def random_hypergraph(shape, seed):
    rng = np.random.default_rng(seed)
    return KPartiteHypergraph.from_dense(rng.random(shape) < 0.4)


# --- round trips ---------------------------------------------------------


def test_khg_round_trip(tmp_path):
    h = random_hypergraph((5, 7, 4), seed=0)
    path = tmp_path / "g.khg"
    hio.write_khg(path, h)
    assert hio.read_khg(path) == h


def test_khg_round_trip_bipartite(tmp_path):
    h = random_hypergraph((9, 6), seed=1)
    path = tmp_path / "g.khg"
    hio.write_khg(path, h)
    assert hio.read_khg(path) == h


def test_khg_empty_graph(tmp_path):
    h = KPartiteHypergraph.empty((3, 3, 3))
    path = tmp_path / "g.khg"
    hio.write_khg(path, h)
    assert hio.read_khg(path) == h


@pytest.mark.parametrize("last", [63, 64, 65])
@pytest.mark.parametrize("lead", [(4,), (2, 3)], ids=["k2", "k3"])
def test_khg_round_trip_at_word_edges(tmp_path, monkeypatch, lead, last):
    h = random_hypergraph(lead + (last,), seed=last)
    path = tmp_path / "g.khg"
    hio.write_khg(path, h)
    with token_route(monkeypatch, allow=False):
        assert hio.read_khg(path) == h
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    with token_route(monkeypatch) as runs:
        assert hio.read_khg(path) == h
    assert runs


def test_w3g_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    w = rng.random((4, 6, 5))
    w[rng.random(w.shape) < 0.5] = 0.0
    path = tmp_path / "g.w3g"
    hio.write_w3g(path, WeightedTripartite(w))
    back = hio.read_w3g(path)
    # repr round-trips every float exactly
    assert np.array_equal(back.weights, w)


def test_part_round_trip_preserves_flags(tmp_path):
    layered = LayeredPartition([
        PartPartition([0, 1, 1, 2, 0, 2], part=0, n_blocks=4,
                      has_exceptional=True),
        PartPartition([1, 0, 1, 0], part=1, equitable=True),
        PartPartition([0, 0, 0], part=2),
    ])
    path = tmp_path / "p.part"
    hio.write_part(path, layered)
    back = hio.read_part(path)
    assert back.k == 3
    for a, b in zip(layered, back):
        assert a == b
        assert a.equitable == b.equitable
        assert a.n_blocks == b.n_blocks
        assert a.has_exceptional == b.has_exceptional
    assert back == layered and layered == back
    assert hash(back) == hash(layered)
    moved = LayeredPartition([*layered.parts[:2],
                              PartPartition([0, 1, 0], part=2)])
    assert moved != layered
    assert LayeredPartition(layered.parts[:2]) != layered
    assert layered != layered.parts


def test_part_reader_tolerates_missing_meta(tmp_path):
    path = tmp_path / "p.part"
    path.write_bytes(b"part 2\n0 0 1 1\n0 1 2\n")
    back = hio.read_part(path)
    assert back[0].part == 0
    assert back[1].part == 1
    assert back[1].n_blocks == 3


def test_audit_round_trip(tmp_path):
    inst = generate(InstanceSpec(
        k=3, n=(8, 8, 8), family="planted-boxes", r=2, eps_prime=0.1, seed=4,
    ))
    layered = LayeredPartition([inst.side_partitions[i] for i in range(3)])
    report = homogeneity_audit(inst.h, layered, 0.2)
    path = tmp_path / "r.audit"
    hio.write_audit(path, report)
    back = hio.read_audit(path)
    assert back == report
    assert back.labels.tobytes() == report.labels.tobytes()
    assert back.densities.tobytes() == report.densities.tobytes()
    assert back.ok.tobytes() == report.ok.tobytes()
    assert hash(back) == hash(report)
    shifted = dataclasses.replace(back, densities=back.densities + 0.5)
    assert shifted != report


def test_audit_round_trip_failing_report(tmp_path):
    h = random_hypergraph((6, 6, 6), seed=5)
    flat = LayeredPartition([
        PartPartition(np.zeros(6, dtype=int), part=i) for i in range(3)
    ])
    report = homogeneity_audit(h, flat, 0.2)
    assert not report.passed
    path = tmp_path / "r.audit"
    hio.write_audit(path, report)
    assert hio.read_audit(path) == report


def test_audit_reader_ignores_old_kind_field(tmp_path):
    # older writers put a free-form kind where the literal "block" is now
    h = random_hypergraph((4, 4, 4), seed=6)
    report = homogeneity_audit(h, LayeredPartition([
        PartPartition.intervals(4, 2, part=i) for i in range(3)
    ]), 0.2)
    path = tmp_path / "r.audit"
    hio.write_audit(path, report)
    text = path.read_text()
    assert text.startswith("audit block ")
    path.write_text(text.replace("audit block ", "audit tuple ", 1))
    assert hio.read_audit(path) == report
    path.write_text(text.replace("audit block ", "audit ", 1))
    with pytest.raises(FormatError):
        hio.read_audit(path)


def test_links_round_trip(tmp_path):
    table = {
        ((), 0): PartPartition([0, 1, 0, 1], part=0, equitable=True),
        ((), 1): PartPartition([0, 0, 1, 1], part=1, equitable=True),
        (((0, 2), (1, 3)), 2): PartPartition(
            [1, 2, 0, 1, 2], n_blocks=3, has_exceptional=True,
        ),
    }
    path = tmp_path / "t.links"
    hio.write_links(path, table, 3)
    back, r = hio.read_links(path)
    assert r == 3
    assert set(back) == set(table)
    for key in table:
        assert back[key] == table[key]
        assert back[key].equitable == table[key].equitable


def test_links_duplicate_key_rejected(tmp_path):
    path = tmp_path / "t.links"
    path.write_bytes(b"links 2\n- 0 1 0 0 - 0 0\n- 0 1 0 0 - 0 0\n")
    with pytest.raises(FormatError, match="duplicate"):
        hio.read_links(path)


def test_comments_skipped_everywhere(tmp_path):
    path = tmp_path / "g.khg"
    path.write_bytes(b"# preamble\nkhg 2 3 3\n# middle\n0 1\n2 2\n# end\n")
    h = hio.read_khg(path)
    dense = h.to_dense()
    assert dense[0, 1] and dense[2, 2]
    assert int(dense.sum()) == 2


def test_digest_embedding(tmp_path):
    h = random_hypergraph((4, 4), seed=6)
    path = tmp_path / "g.khg"
    hio.write_khg(path, h, digest="abc123")
    assert hio.read_digest(path) == "abc123"
    assert hio.read_khg(path) == h

    bare = tmp_path / "bare.khg"
    hio.write_khg(bare, h)
    assert hio.read_digest(bare) is None


def line_scan_digest(raw):
    """The digest as a scan of every content line finds it."""
    for _, text in hio._content_lines(raw):
        if text.startswith("# manifest "):
            return text.split()[2]
    return None


@pytest.mark.parametrize("text, digest", [
    (b"khg 2 2 2\n0 1\n# manifest abc\n", "abc"),
    (b"khg 2 2 2\n0 1\n", None),
    (b"", None),
    (b"khg 2 2 2\r\n0 1\r\n# manifest abc\r\n", "abc"),
    (b"khg 2 2 2\n# manifest last", "last"),
    (b"# manifest first x\nkhg 2 2 2\n# manifest second\n", "first"),
    (b"khg 2 2 2\n# manifest one\n0 1\n# manifest two\n", "one"),
    (b"# note\n#manifest a\n# manifestb c\n # manifest d\n\r# manifest e\n"
     b"khg 2 2 2\n0 1 # manifest f\n# manifest  spaced \t out\n", "spaced"),
    (b"khg 2 2 2\n# note\n", None),
])
def test_read_digest_matches_line_scan(tmp_path, text, digest):
    path = tmp_path / "g.khg"
    path.write_bytes(text)
    assert hio.read_digest(path) == line_scan_digest(text) == digest


# --- format errors carry byte offsets ------------------------------------


@pytest.mark.parametrize("line", [b"#normalized", b"#normalized x",
                                  b"#weighted", b"#weighted yes"])
def test_audit_bad_comment_value_offset(tmp_path, line):
    path = tmp_path / "r.audit"
    path.write_bytes(b"audit block 0.2 pass 0\n" + line + b"\n")
    with pytest.raises(FormatError) as err:
        hio.read_audit(path)
    assert err.value.offset == 23


@pytest.mark.parametrize("name, comment", [
    ("p.part", b"#metadata written by hand"),
    ("r.audit", b"#weightedness is not a key"),
    ("r.audit", b"#normalizedish note"),
], ids=["metadata", "weightedness", "normalizedish"])
def test_comment_starting_like_a_key_is_skipped(tmp_path, name, comment):
    # a key is the comment's whole first token, not a prefix of it
    h = random_hypergraph((6, 6, 6), seed=5)
    layered = LayeredPartition([
        PartPartition([0, 0, 1, 1, 2, 2], part=i, has_exceptional=True)
        for i in range(3)])
    if name.endswith(".part"):
        write, read, value = hio.write_part, hio.read_part, layered
    else:
        write, read = hio.write_audit, hio.read_audit
        value = homogeneity_audit(h, layered, 0.2)
    path = tmp_path / name
    write(path, value)
    header, body = path.read_bytes().split(b"\n", 1)
    commented = tmp_path / f"commented-{name}"
    commented.write_bytes(header + b"\n" + comment + b"\n" + body)
    assert read(commented) == read(path) == value


@pytest.mark.parametrize("raw, read, message", [
    (b"audit block 0.2 pass 0\n#normalized x\n", hio.read_audit,
     "byte 23: bad #normalized line"),
    (b"audit block 0.2 pass 0\n#weighted 2\n", hio.read_audit,
     "byte 23: #weighted must be 0 or 1, got 2"),
    (b"part 1\n#meta 0 part=0 exceptional=0 equitable=0\n0 0\n", hio.read_part,
     "byte 7: bad #meta line: 'nblocks'"),
], ids=["normalized", "weighted", "meta"])
def test_comment_key_with_bad_value_keeps_its_message(tmp_path, raw, read,
                                                       message):
    path = tmp_path / "f"
    path.write_bytes(raw)
    with pytest.raises(FormatError) as err:
        read(path)
    assert str(err.value) == message


def test_links_bad_pin_offset(tmp_path):
    path = tmp_path / "t.links"
    path.write_bytes(b"links 2\n0:x 1 1 0 0 1 0 0\n")
    with pytest.raises(FormatError) as err:
        hio.read_links(path)
    assert err.value.offset == 8


def test_khg_bad_vertex_offset(tmp_path):
    path = tmp_path / "g.khg"
    path.write_bytes(b"khg 2 3 3\n0 0\n9 1\n")
    with pytest.raises(FormatError) as err:
        hio.read_khg(path)
    assert err.value.offset == 14
    assert "byte 14" in str(err.value)


def test_khg_bad_integer_offset(tmp_path):
    path = tmp_path / "g.khg"
    path.write_bytes(b"khg 2 3 3\n0 x\n")
    with pytest.raises(FormatError) as err:
        hio.read_khg(path)
    assert err.value.offset == 10


def test_khg_wrong_arity(tmp_path):
    path = tmp_path / "g.khg"
    path.write_bytes(b"khg 3 2 2 2\n0 0\n")
    with pytest.raises(FormatError, match="expected 3 fields"):
        hio.read_khg(path)


def test_non_ascii_byte_offset(tmp_path):
    path = tmp_path / "g.khg"
    path.write_bytes(b"khg 2 3 3\n0 \xff\n")
    with pytest.raises(FormatError) as err:
        hio.read_khg(path)
    assert err.value.offset == 12


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "g.khg"
    path.write_bytes(b"")
    with pytest.raises(FormatError, match="header"):
        hio.read_khg(path)


def test_w3g_weight_out_of_range(tmp_path):
    path = tmp_path / "g.w3g"
    path.write_bytes(b"w3g 2 2 2\n0 0 0 1.5\n")
    with pytest.raises(FormatError, match="outside"):
        hio.read_w3g(path)


def test_wrong_header_keyword(tmp_path):
    path = tmp_path / "g.w3g"
    path.write_bytes(b"khg 2 2 2\n")
    with pytest.raises(FormatError, match="w3g"):
        hio.read_w3g(path)


def test_part_count_mismatch(tmp_path):
    path = tmp_path / "p.part"
    path.write_bytes(b"part 3\n0 0\n1 1\n")
    with pytest.raises(FormatError, match="3 label lines"):
        hio.read_part(path)


@pytest.mark.parametrize("name, text, message", [
    ("g.khg", b"# c\nkhg 1 5\n0\n", "need at least two parts"),
    ("g.khg", b"# c\nkhg 3 0 4 4\n", "part sizes must be positive"),
    ("g.khg", b"# c\nkhg 0\n", "need at least two parts"),
    ("g.w3g", b"# c\nw3g 2 -1 2\n", "part sizes must be nonnegative"),
    ("p.part", b"# c\npart 0\n", "need at least one part"),
])
def test_bad_header_sizes_offset(tmp_path, name, text, message):
    path = tmp_path / name
    path.write_bytes(text)
    read = {"khg": hio.read_khg, "w3g": hio.read_w3g, "part": hio.read_part}
    with pytest.raises(FormatError, match=message) as err:
        read[name.split(".")[1]](path)
    assert err.value.offset == 4


def test_part_meta_for_another_part_offset(tmp_path):
    path = tmp_path / "p.part"
    path.write_bytes(b"part 2\n0 1\n#meta 1 part=0 exceptional=0 equitable=0 nblocks=2\n0 1\n")
    with pytest.raises(FormatError, match="marked part 0") as err:
        hio.read_part(path)
    assert err.value.offset == 62


_META = b"part=0 exceptional=0 equitable=0 nblocks="


@pytest.mark.parametrize("raw, offset, message", [
    (b"part 1\n#meta 7 " + _META + b"1\n0 0\n", 7, "#meta 7 stands before label line 0"),
    (b"part 2\n0 0\n#meta 0 " + _META + b"1\n0 1\n", 11,
     "#meta 0 stands before label line 1"),
    (b"part 1\n0 0\n#meta 0 " + _META + b"9\n", 11, "#meta 0 has no label line after it"),
    (b"part 1\n#meta 0 " + _META + b"1\n# note\n#meta 0 " + _META + b"2\n0 0\n",
     65, "#meta 0 is a second #meta before label line 0"),
], ids=["wrong-index", "index-of-line-above", "no-line-after", "two-before-one"])
def test_part_meta_names_the_next_label_line(tmp_path, raw, offset, message):
    # a #meta line used to apply to the next label line whatever index it
    # named, and one after the last label line was dropped
    path = tmp_path / "p.part"
    path.write_bytes(raw)
    with pytest.raises(FormatError) as err:
        hio.read_part(path)
    assert err.value.offset == offset
    assert str(err.value) == f"byte {offset}: {message}"


def test_part_meta_applies_past_comments(tmp_path):
    path = tmp_path / "p.part"
    path.write_bytes(b"# c\n#meta 0 " + _META + b"3\npart 2\n0 0\n#meta 1 "
                     + _META.replace(b"part=0", b"part=-") + b"4\n# c\n\n0 1\n")
    back = hio.read_part(path)
    assert (back[0].part, back[0].n_blocks) == (0, 3)
    assert (back[1].part, back[1].n_blocks) == (None, 4)


@pytest.mark.parametrize("name, text, offset, message", [
    ("g.khg", b"khg 2 3 3\n0 1\n2 2\n0 1\n", 18, "duplicate edge (0, 1)"),
    ("g.khg", b"khg 2 2 130\n1 64\n1 127\n1 64\n", 23, "duplicate edge (1, 64)"),
    ("g.w3g", b"w3g 2 2 2\n0 0 0 0.5\n0 0 0 0.25\n", 20, "duplicate cell (0, 0, 0)"),
])
def test_duplicate_rows_rejected(tmp_path, name, text, offset, message):
    path = tmp_path / name
    path.write_bytes(text)
    read = hio.read_khg if name.endswith(".khg") else hio.read_w3g
    with pytest.raises(FormatError) as err:
        read(path)
    assert err.value.offset == offset
    assert str(err.value) == f"byte {offset}: {message}"


def broken_audit_rows(lines, name):
    """(lines, index of the line the error names) for a written audit's
    lines, header first and a manifest stamp last, with its rows broken
    one way."""
    head, rows, stamp = lines[:3], lines[3:-1], lines[-1:]
    if name == "duplicated row":
        return head + rows[:3] + rows[2:] + stamp, 6
    if name == "dropped row":
        return head + rows[:2] + rows[3:] + stamp, 5
    if name == "dropped last row":
        return head + rows[:-1] + stamp, len(lines) - 2
    if name == "rows swapped":
        return head + rows[:2] + [rows[3], rows[2]] + rows[4:] + stamp, 6
    if name == "negative label":
        # still a product in increasing order, of the labels {-1, 1}
        # in part 0
        rows = [b"-1" + r[1:] if r.startswith(b"0 ") else r for r in rows]
        return head + rows + stamp, 3
    assert name == "header-only body"
    return head + stamp, 1  # the end of the header line


@pytest.mark.parametrize("chunk", [1, 64, None])
@pytest.mark.parametrize("name, message", [
    ("duplicated row", "block tuple (0, 1, 0) repeats the one above"),
    ("dropped row",
     "7 block tuples, expected the 8 of the product of their labels"),
    ("dropped last row",
     "7 block tuples, expected the 8 of the product of their labels"),
    ("rows swapped", "block tuple (0, 1, 0) comes before the one above"),
    ("negative label", "block labels must be nonnegative"),
    ("header-only body", "expected at least one block tuple"),
])
def test_audit_rows_must_be_the_product_of_their_labels(tmp_path, monkeypatch,
                                                        chunk, name, message):
    if chunk is not None:
        monkeypatch.setattr(hio, "_CHUNK_BYTES", chunk)
    report = audit_cases()[0]
    assert [b.tolist() for b in report.blocks] == [[0, 1]] * 3
    path = tmp_path / "r.audit"
    hio.write_audit(path, report, digest="d3")
    lines, at = broken_audit_rows(path.read_bytes().splitlines(keepends=True),
                                  name)
    bad = b"".join(lines)
    path.write_bytes(bad)
    # every row is spelled as the writer spells it: the rules catch the
    # fault on runs read whole
    with pytest.raises(FormatError) as err, token_route(monkeypatch, allow=False):
        hio.read_audit(path)
    assert outcome(reference_read_audit, bad) == ("error", err.value.offset,
                                                  str(err.value))
    offset = len(b"".join(lines[:at]))
    assert err.value.offset == offset
    assert str(err.value) == f"byte {offset}: {message}"


@pytest.mark.parametrize("argv", [
    ["homogenize", "{missing}.khg"],
    ["homogenize", "{graph}", "--links", "{missing}.links"],
    ["audit", "{missing}.khg", "{missing}.part"],
    ["audit", "{graph}", "{missing}.part"],
    ["vc", "{missing}.khg"],
    ["vc", "{directory}"],
    ["gowers", "cascade", "--toy", "--n", "24", "--candidate", "{missing}.part"],
])
def test_cli_missing_or_unreadable_input_exits_two(tmp_path, capsys, argv):
    graph = tmp_path / "g.khg"
    hio.write_khg(graph, random_hypergraph((4, 4, 4), seed=0))
    paths = {"missing": tmp_path / "nope", "graph": graph,
             "directory": tmp_path}
    out = tmp_path / "out"
    code = run_cli([a.format(**paths) for a in argv] + ["--out", out])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: [Errno ") and "Traceback" not in err
    assert not out.exists()


# --- canonical writers and readers against per-line references ----------
#
# The writers format whole columns through token tables. These per-line
# writers are the ones they replaced, kept as the byte-for-byte reference.
# The per-line parsers below are the readers' reference in turn: what
# each file reads to, or the FormatError it raises.


def reference_khg(h):
    sizes = " ".join(str(s) for s in h.part_sizes)
    rows = [f"khg {h.k} {sizes}"]
    for edge in np.argwhere(h.to_dense()):
        rows.append(" ".join(str(v) for v in edge))
    return "\n".join(rows) + "\n"


def reference_w3g(weighted):
    shape = weighted.weights.shape
    rows = [f"w3g {shape[0]} {shape[1]} {shape[2]}"]
    for a, b, c in np.argwhere(weighted.weights != 0.0):
        rows.append(f"{a} {b} {c} {float(weighted.weights[a, b, c])!r}")
    return "\n".join(rows) + "\n"


def reference_audit(report):
    verdict = "pass" if report.passed else "fail"
    rows = [
        f"audit block {float(report.eps)!r} {verdict} {report.mass}",
        f"#normalized {float(report.normalized_mass)!r}",
        f"#weighted {int(report.weighted)}",
    ]
    for labels, density, ok in zip(report.labels, report.densities,
                                   report.ok):
        tuple_verdict = "pass" if ok else "fail"
        labels_text = " ".join(str(int(v)) for v in labels)
        rows.append(f"{labels_text} {float(density)!r} {tuple_verdict}")
    return "\n".join(rows) + "\n"


def reference_read_khg(raw: bytes) -> KPartiteHypergraph:
    lines = hio._data_lines(raw)
    if not lines:
        raise FormatError(0, "empty file, expected a khg header")
    offset, header = lines[0]
    tokens = header.split()
    if tokens[0] != "khg" or len(tokens) < 2:
        raise FormatError(offset, "expected header 'khg k n_1 ... n_k'")
    k = hio._ints(offset, tokens[1:2])[0]
    sizes = hio._ints(offset, tokens[2:], count=k)
    if k < 2:
        raise FormatError(offset, "need at least two parts")
    if min(sizes) < 1:
        raise FormatError(offset, f"part sizes must be positive: {tuple(sizes)}")
    dense = np.zeros(sizes, dtype=bool)
    for offset, text in lines[1:]:
        edge = hio._ints(offset, text.split(), count=k)
        for i, v in enumerate(edge):
            if not 0 <= v < sizes[i]:
                raise FormatError(offset, f"vertex {v} out of range for part {i}")
        key = tuple(edge)
        if dense[key]:
            raise FormatError(offset, f"duplicate edge {key}")
        dense[key] = True
    return KPartiteHypergraph.from_dense(dense)


def reference_read_w3g(raw: bytes) -> WeightedTripartite:
    lines = hio._data_lines(raw)
    if not lines:
        raise FormatError(0, "empty file, expected a w3g header")
    offset, header = lines[0]
    tokens = header.split()
    if tokens[0] != "w3g":
        raise FormatError(offset, "expected header 'w3g nA nB nC'")
    sizes = hio._ints(offset, tokens[1:], count=3)
    if min(sizes) < 0:
        raise FormatError(offset, f"part sizes must be nonnegative: {tuple(sizes)}")
    weights = np.zeros(tuple(sizes))
    seen = set()
    for offset, text in lines[1:]:
        tokens = text.split()
        if len(tokens) != 4:
            raise FormatError(offset, f"expected 'a b c w', got {len(tokens)} fields")
        cell = hio._ints(offset, tokens[:3])
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


def reference_read_audit(raw: bytes) -> HomogeneityReport:
    lines = hio._content_lines(raw)
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
    mass = hio._ints(offset, tokens[4:5])[0]

    normalized = 0.0
    weighted = False
    for o, text in lines:
        if text.startswith("#normalized"):
            normalized = hio._comment_value(o, text, float)
        elif text.startswith("#weighted"):
            weighted = bool(hio._comment_value(o, text, int))
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
        row = hio._ints(offset, tokens[:-2])
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


@contextlib.contextmanager
def token_route(monkeypatch, allow=True):
    """{offset: bytes} of each run the readers hand to the token parser
    while the block runs; with ``allow=False`` that parser raises."""
    runs = {}
    parse = hio._token_rows

    def spy(run, offset, *args):
        if not allow:
            raise AssertionError(f"the run at byte {offset} took the token route")
        runs[offset] = run
        return parse(run, offset, *args)

    with monkeypatch.context() as patch:
        patch.setattr(hio, "_token_rows", spy)
        yield runs


def singleton_audit(weights, eps=0.2):
    layered = LayeredPartition([
        PartPartition.singletons(n, part=i) for i, n in enumerate(weights.shape)
    ])
    return homogeneity_audit(WeightedTripartite(weights), layered, eps)


def gowers_weights(n=24, t=3):
    params = build_sequence(1e-6, 0.5, mode="toy", t=t, growth=2, s0=4, seed=1)
    return build_weighted(params, n).weighted.weights


def uniform_weights(shape, seed, zeros=0.3):
    rng = np.random.default_rng(seed)
    w = rng.random(shape)
    w[rng.random(shape) < zeros] = 0.0
    w[0, 0, :3] = (1.0, 1e-7, 5e-324)  # scientific notation and a subnormal
    return w


def product_audit(blocks, densities, eps=0.2):
    """A report over the row-major product of ``blocks`` whose verdicts,
    mass and pass flag follow from ``densities`` as the audit's do,
    with one cell per tuple."""
    densities = np.asarray(densities, dtype=np.float64)
    ok = homogeneous(densities, eps)
    mass = int(np.count_nonzero(~ok))
    normalized = mass / densities.size
    return HomogeneityReport(
        eps=eps, passed=normalized <= eps + 1e-12, mass=mass,
        normalized_mass=normalized, weighted=False, densities=densities, ok=ok,
        blocks=tuple(np.asarray(b, dtype=np.int64) for b in blocks))


def khg_cases():
    return [
        random_hypergraph((5, 7, 4), seed=0),
        random_hypergraph((9, 6), seed=1),
        random_hypergraph((3, 4, 2, 70), seed=2),
        random_hypergraph((12, 11, 130), seed=3),
        KPartiteHypergraph.empty((3, 3, 3)),
        KPartiteHypergraph.from_dense(np.ones((2, 3, 4), dtype=bool)),
    ]


def w3g_cases():
    params = build_sequence(1e-6, 0.5, mode="toy", t=3, growth=2, s0=4, seed=2)
    return [
        WeightedTripartite(gowers_weights()),
        build_weighted(params, 24).weighted,  # layered, written from its layers
        WeightedTripartite(uniform_weights((6, 5, 7), seed=3)),
        WeightedTripartite(np.zeros((3, 2, 4))),
        WeightedTripartite(np.zeros((0, 2, 4))),
    ]


def audit_cases():
    planted = generate(InstanceSpec(
        k=3, n=(8, 8, 8), family="planted-boxes", r=2, eps_prime=0.1, seed=4,
    ))
    flat = LayeredPartition([
        PartPartition(np.zeros(6, dtype=int), part=i) for i in range(3)
    ])
    return [
        homogeneity_audit(planted.h, LayeredPartition(
            [planted.side_partitions[i] for i in range(3)]), 0.2),
        homogeneity_audit(random_hypergraph((6, 6, 6), seed=5), flat, 0.2),
        homogeneity_audit(random_hypergraph((13, 11, 12), seed=6),
                          LayeredPartition([PartPartition.singletons(n, part=i)
                                            for i, n in enumerate((13, 11, 12))]),
                          0.2),
        singleton_audit(gowers_weights()),
        singleton_audit(uniform_weights((6, 5, 7), seed=7), eps=1e-3),
        # block labels spread wider than the rows
        product_audit([[0, 5, 10**12], [7]], [0.5, 1.0, 0.25]),
    ]


@pytest.mark.parametrize("digest", [None, "0123abcd"])
def test_writers_match_per_line_references(tmp_path, monkeypatch, digest):
    stamp = "" if digest is None else f"# manifest {digest}\n"
    path = tmp_path / "f"
    for h in khg_cases():
        hio.write_khg(path, h, digest=digest)
        assert path.read_bytes() == (reference_khg(h) + stamp).encode()
        with token_route(monkeypatch, allow=False):
            assert hio.read_khg(path) == h
    for weighted in w3g_cases():
        hio.write_w3g(path, weighted, digest=digest)
        assert path.read_bytes() == (reference_w3g(weighted) + stamp).encode()
        with token_route(monkeypatch, allow=False):
            back = hio.read_w3g(path)
        assert back.weights.tobytes() == weighted.weights.tobytes()
    for report in audit_cases():
        hio.write_audit(path, report, digest=digest)
        assert path.read_bytes() == (reference_audit(report) + stamp).encode()
        with token_route(monkeypatch, allow=False):
            assert hio.read_audit(path) == report


@pytest.mark.parametrize("chunk", [1, 64])
@pytest.mark.parametrize("digest", [None, "0123abcd"])
def test_chunked_writers_match_per_line_references(tmp_path, monkeypatch,
                                                   digest, chunk):
    monkeypatch.setattr(hio, "_CHUNK_BYTES", chunk)
    test_writers_match_per_line_references(tmp_path, monkeypatch, digest)


@pytest.mark.parametrize("shape", [
    (3, 1), (2, 3, 63), (2, 3, 64), (2, 3, 65), (4, 5, 130), (2, 2, 3, 70),
])
@pytest.mark.parametrize("density", [0.0, 0.03, 0.5, 1.0])
def test_edge_columns_match_dense_reference(tmp_path, shape, density):
    # the edges come from the set bits of the packed words, never from
    # a dense copy; they must list the dense tensor's cells in order
    rng = np.random.default_rng(len(shape) + shape[-1])
    dense = rng.random(shape) < density
    h = KPartiteHypergraph.from_dense(dense)
    columns = h.edge_columns()
    assert len(columns) == len(shape)
    for got, want in zip(columns, np.nonzero(dense), strict=True):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert np.array_equal(np.stack(columns, axis=-1), np.argwhere(dense))
    path = tmp_path / "g.khg"
    hio.write_khg(path, h)
    assert path.read_bytes() == reference_khg(h).encode()


def test_audit_writer_keeps_signed_zero_and_nan(tmp_path):
    report = product_audit([range(4)], [0.0, -0.0, np.nan, -np.nan])
    path = tmp_path / "r.audit"
    hio.write_audit(path, report)
    assert path.read_bytes() == reference_audit(report).encode()
    assert path.read_bytes().endswith(b"0 0.0 pass\n1 -0.0 pass\n2 nan fail\n3 nan fail\n")


# --- the readers against the reference parsers ---------------------------


def outcome(read, arg):
    """What a reader gives: ("ok", a comparable form of the object) or
    ("error", offset, message)."""
    try:
        obj = read(arg)
    except FormatError as exc:
        return ("error", exc.offset, str(exc))
    if isinstance(obj, KPartiteHypergraph):
        return ("ok", obj.part_sizes, obj.words.tobytes())
    if isinstance(obj, WeightedTripartite):
        return ("ok", obj.weights.shape, obj.weights.tobytes())
    return ("ok", obj._scalars(), obj.labels.shape, obj.labels.dtype,
            obj.labels.tobytes(), obj.densities.tobytes(), obj.ok.tobytes())


def mutations(text, n_head, seed, out_of_range):
    """(name, text) pairs derived from a written file with a manifest
    stamp: lenient but valid spellings, malformed rows and headers.
    ``out_of_range(tokens, rng)`` returns a row with a value outside the
    format's domain."""
    rng = np.random.default_rng(seed)
    lines = text.split("\n")
    head, rows, stamp = lines[:n_head], lines[n_head:-2], lines[-2:]

    def put(new_rows, tail=stamp):
        return "\n".join(head + new_rows + tail)

    i = int(rng.integers(len(rows)))
    row = rows[i]
    tokens = row.split(" ")
    k = int(rng.integers(sum(t.isdigit() for t in tokens)))  # an integer field
    f = next((p for p, t in enumerate(tokens)
              if not t.isdigit() and t not in ("pass", "fail")), k)

    def with_token(index, token):
        new = tokens[:index] + [token] + tokens[index + 1:]
        return put(rows[:i] + [" ".join(new)] + rows[i + 1:])

    yield "crlf", text.replace("\n", "\r\n")
    yield "comment between rows", put(rows[:i] + ["# note"] + rows[i:])
    yield "blank line", put(rows[:i] + [""] + rows[i:])
    yield "blank lines only", put([""] * 2)
    yield "double space", put(rows[:i] + [row.replace(" ", "  ", 1)] + rows[i + 1:])
    yield "trailing space", put(rows[:i] + [row + " "] + rows[i + 1:])
    yield "tab", put(rows[:i] + [row.replace(" ", "\t", 1)] + rows[i + 1:])
    yield "plus sign", with_token(k, "+" + tokens[k])
    yield "underscore", with_token(k, "0_" + tokens[k])
    yield "leading zero", with_token(k, "0" + tokens[k])
    yield "missing final newline", put(rows, tail=[])
    yield "duplicated row", put(rows[:i + 1] + [row] + rows[i + 1:])
    yield "truncated row", put(rows[:i] + [" ".join(tokens[:-1])] + rows[i + 1:])
    yield "extra field", put(rows[:i] + [row + " 0"] + rows[i + 1:])
    yield "bad integer", with_token(k, "x")
    yield "out of range", put(rows[:i] + [out_of_range(tokens, rng)] + rows[i + 1:])
    for bad in ("0.5.5", "1e400", "nan", "-0.0", ".5", "1_0.5", "inf"):
        yield f"float {bad}", with_token(f, bad)
    yield "bad header", put(rows).replace(head[0], head[0] + "x", 1)
    yield "header comment", "# preamble\n" + text


def khg_out_of_range(sizes):
    def bad(tokens, rng):
        part = int(rng.integers(len(tokens)))
        return " ".join(str(sizes[part]) if p == part else t
                        for p, t in enumerate(tokens))
    return bad


def w3g_out_of_range(sizes):
    def bad(tokens, rng):
        if rng.random() < 0.5:
            return " ".join(tokens[:3] + ["1.5"])
        return khg_out_of_range(sizes)(tokens[:3], rng) + " " + tokens[3]
    return bad


def audit_out_of_range(tokens, rng):
    return " ".join(["-1"] + tokens[1:-1] + [str(rng.choice(["maybe", "PASS"]))])


# mutations that respell a row, so that some run must go to the token parser
RESPELLED = {"crlf", "double space", "trailing space", "tab", "plus sign",
             "underscore", "leading zero", "missing final newline",
             "truncated row", "extra field", "bad integer"}


@pytest.mark.parametrize("seed", range(4))
def test_readers_match_the_reference_parsers(tmp_path, monkeypatch, seed):
    path = tmp_path / "f"
    cases = []
    for shape in ((5, 7, 4), (9, 6), (3, 4, 2, 7), (3, 2, 130)):
        h = random_hypergraph(shape, seed=seed)
        hio.write_khg(path, h, digest="d1")
        cases.append((path.read_text(), 1, khg_out_of_range(h.part_sizes),
                      hio.read_khg, reference_read_khg))
    for weights in (gowers_weights(8, t=2), uniform_weights((6, 5, 7), seed)):
        hio.write_w3g(path, WeightedTripartite(weights), digest="d2")
        cases.append((path.read_text(), 1, w3g_out_of_range(weights.shape),
                      hio.read_w3g, reference_read_w3g))
    for report in (*audit_cases()[:2], singleton_audit(gowers_weights(8, t=2)),
                   singleton_audit(uniform_weights((6, 5, 7), seed), eps=1e-3)):
        hio.write_audit(path, report, digest="d3")
        cases.append((path.read_text(), 3, audit_out_of_range,
                      hio.read_audit, reference_read_audit))
    for text, n_head, bad, read, reference in cases:
        raw = text.encode()
        written_lines = set(raw.splitlines(keepends=True))
        path.write_bytes(raw)
        with token_route(monkeypatch, allow=False):
            assert outcome(read, path) == outcome(reference, raw)
        for name, mutated in mutations(text, n_head, seed, bad):
            raw = mutated.encode()
            path.write_bytes(raw)
            with token_route(monkeypatch) as runs:
                assert outcome(read, path) == outcome(reference, raw), name
            # only a run holding a line the writer did not write may go
            # to the token parser, and a respelled row must
            assert all(set(run.splitlines(keepends=True)) - written_lines
                       for run in runs.values()), name
            assert runs or name not in RESPELLED, name


# --- the readers a bounded run of lines at a time -------------------------

FORMATS = {
    "khg": (hio.write_khg, hio.read_khg, reference_read_khg, 1),
    "w3g": (hio.write_w3g, hio.read_w3g, reference_read_w3g, 1),
    "audit": (hio.write_audit, hio.read_audit, reference_read_audit, 3),
}


def chunk_cases():
    """(format, object) pairs: empty bodies, lines of 4 to over 150
    bytes, and up to 210 rows."""
    flat = LayeredPartition([PartPartition(np.zeros(6, dtype=int), part=i)
                             for i in range(3)])
    singletons = LayeredPartition([PartPartition.singletons(n, part=i)
                                   for i, n in enumerate((7, 6, 5))])
    wide = product_audit(
        [10**15 + np.arange(3)] + [[10**15 + j] for j in range(8)],
        [0.125, 1e-300, 0.5])
    return [
        ("khg", random_hypergraph((5, 7, 4), seed=0)),
        ("khg", random_hypergraph((9, 6), seed=1)),
        ("khg", random_hypergraph((3, 4, 2, 70), seed=2)),
        ("khg", KPartiteHypergraph.empty((3, 3, 3))),
        ("w3g", WeightedTripartite(uniform_weights((6, 5, 7), seed=3))),
        ("w3g", WeightedTripartite(gowers_weights(8, t=2))),
        ("w3g", WeightedTripartite(np.zeros((3, 2, 4)))),
        ("audit", homogeneity_audit(random_hypergraph((6, 6, 6), seed=5), flat, 0.2)),
        ("audit", homogeneity_audit(random_hypergraph((7, 6, 5), seed=6),
                                    singletons, 0.2)),
        ("audit", singleton_audit(uniform_weights((6, 5, 7), seed=7), eps=1e-3)),
        ("audit", wide),
    ]


def written(tmp_path, name, obj, digest):
    path = tmp_path / f"f.{name}"
    FORMATS[name][0](path, obj, digest=digest)
    return path, path.read_bytes()


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_line_chunks_cover_the_rows_in_whole_lines(chunk, monkeypatch):
    monkeypatch.setattr(hio, "_CHUNK_BYTES", chunk)
    lines = [b"0 1\n", b"2 3\n", b"10 11 12 13 14 15 16 17 18 19 20 21 22 23 24\n",
             b"4 5\n"] * 20
    raw = b"khg 2 99 99\n" + b"".join(lines) + b"# manifest abc\n"
    offset, tokens, start, stop = hio._layout(raw, "a khg")
    assert (offset, tokens) == (0, ["khg", "2", "99", "99"])
    assert raw[:start] == b"khg 2 99 99\n" and raw[stop:] == b"# manifest abc\n"
    pieces = []
    for at, piece in hio._line_chunks(raw, start, stop):
        assert at == start + len(b"".join(pieces))
        assert piece.endswith(b"\n")
        assert len(piece) <= chunk or piece.count(b"\n") == 1
        pieces.append(piece)
    assert b"".join(pieces) == raw[start:stop]
    assert sum(p.count(b"\n") for p in pieces) == len(lines)
    assert len(pieces) > 1 and (chunk < 64 or max(map(len, pieces)) > 32)
    # a last line without its newline ends the last run
    pieces = [piece for _, piece in hio._line_chunks(raw[:-1], start, len(raw) - 1)]
    assert b"".join(pieces) == raw[start:-1] and pieces[-1].endswith(b"abc")


FIELD_VALUES = {
    "i": st.one_of(st.integers(-20, 20), st.integers(-2**63, 2**63 - 1)),
    "f": st.one_of(st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf,
                                    -math.inf, 5e-324, -2.5e-310, 1e-7, 0.5]),
                   st.floats(width=64)),
    "b": st.booleans(),
}
DTYPES = {"i": np.int64, "f": np.float64, "b": bool}


@st.composite
def column_tables(draw):
    """(kinds, columns): one to five int64, float64 or bool columns of
    one to twelve rows, with -0.0, NaN, infinities and subnormals."""
    kinds = draw(st.text(alphabet="ifb", min_size=1, max_size=5))
    rows = draw(st.integers(1, 12))
    return kinds, [np.array(draw(st.lists(FIELD_VALUES[kind], min_size=rows,
                                          max_size=rows)), dtype=DTYPES[kind])
                   for kind in kinds]


def same_bits(got, want):
    if got.dtype.kind != "f":
        return got.dtype == want.dtype and np.array_equal(got, want)
    nan = np.isnan(want)
    return (got.dtype == want.dtype and np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64)))


@settings(max_examples=300, deadline=None)
@given(table=column_tables())
def test_canonical_columns_read_back_what_rows_text_writes(table):
    kinds, columns = table
    got = hio._canonical_columns(hio._rows_text(columns), kinds)
    if any(c.dtype.kind == "i" and len(str(abs(int(v)))) > 18
           for c in columns for v in c):
        assert got is None  # left to the token parser
    else:
        assert len(got) == len(columns)
        assert all(map(same_bits, got, columns))


EDIT_BYTES = b"0123456789 \n\r\t-+._exnaifpsl\0"


@settings(max_examples=500, deadline=None)
@given(table=column_tables(), data=st.data())
def test_canonical_columns_refuse_every_other_text(table, data):
    # one to three one-byte edits: a byte replaced, inserted or deleted,
    # half of them a space or an LF
    kinds, columns = table
    text = bytearray(hio._rows_text(columns))
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(text)))
        byte = data.draw(st.one_of(st.sampled_from(b" \n"), st.sampled_from(EDIT_BYTES)))
        edit = data.draw(st.sampled_from(["replace", "insert", "delete"]))
        if edit == "insert":
            text.insert(at, byte)
        elif at < len(text):
            text[at:at + 1] = bytes([byte]) if edit == "replace" else b""
    got = hio._canonical_columns(bytes(text), kinds)
    if got is not None:
        assert [c.dtype.kind for c in got] == list(kinds)
        assert hio._rows_text(got) == bytes(text)


def one_byte_edits(text: bytes):
    """Every text one byte replaced, inserted or deleted, or two bytes
    swapped, away from ``text``."""
    for at in range(len(text) + 1):
        for byte in EDIT_BYTES:
            yield text[:at] + bytes([byte]) + text[at:]
            yield text[:at] + bytes([byte]) + text[at + 1:]
        yield text[:at] + text[at + 1:]
        for other in range(at + 1, len(text)):
            yield (text[:at] + text[other:other + 1] + text[at + 1:other]
                   + text[at:at + 1] + text[other + 1:])


@pytest.mark.parametrize("columns", [
    [np.array([0, -12, 7]), np.array([5, 40, -3])],
    [np.array([3, -1]), np.array([0.25, -0.0]), np.array([True, False])],
    [np.array([0.25, math.nan, 1e-7, -math.inf])],
    [np.array([True])],
], ids=["ii", "ifb", "f", "b"])
def test_canonical_columns_refuse_every_near_text(columns):
    kinds = "".join(c.dtype.kind for c in columns)
    text = hio._rows_text(columns)
    assert all(map(same_bits, hio._canonical_columns(text, kinds), columns))
    for edited in one_byte_edits(text):
        got = hio._canonical_columns(edited, kinds)
        assert got is None or hio._rows_text(got) == edited, edited


@pytest.mark.parametrize("text, kinds", [
    (b"\n", "i"), (b" \n", "f"), (b"\n\n", "b"), (b"-\n", "i"), (b"1 \n", "ii"),
    (b"0.5 \n", "ff"), (b"0.5  pass\n", "ffb"), (b" 0.5 pass\n", "ffb"),
])
def test_canonical_columns_refuse_empty_fields(text, kinds):
    assert hio._canonical_columns(text, kinds) is None


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_chunked_readers_match_default_and_per_line(tmp_path, monkeypatch, chunk):
    # no run of a file the writers wrote goes to the token parser
    longest = 0
    for digest in (None, "d1"):
        for name, obj in chunk_cases():
            _, read, reference, _ = FORMATS[name]
            path, raw = written(tmp_path, name, obj, digest)
            longest = max(longest, *map(len, raw.splitlines()))
            with token_route(monkeypatch, allow=False):
                default = outcome(read, path)
                with monkeypatch.context() as patch:
                    patch.setattr(hio, "_CHUNK_BYTES", chunk)
                    assert outcome(read, path) == default, name
            assert default == outcome(reference, raw), name
            assert default[0] == "ok", name
    assert longest > 2 * 64


@pytest.mark.parametrize("chunk", [1, 7, 64])
@pytest.mark.parametrize("digest", [None, "d1"])
def test_chunked_readers_read_only_the_last_run_by_tokens(tmp_path, monkeypatch,
                                                          chunk, digest):
    monkeypatch.setattr(hio, "_CHUNK_BYTES", chunk)
    for name, obj in chunk_cases():
        _, read, reference, n_head = FORMATS[name]
        path, raw = written(tmp_path, name, obj, digest)
        lines = raw.splitlines(keepends=True)
        at = len(lines) - (digest is not None) - 1  # the last row
        if at < n_head:
            continue  # no rows
        want = outcome(read, path)
        for row, valid in ((b"+" + lines[at], True),
                           (lines[at].replace(b" ", b"  ", 1), True),
                           (lines[at][:-1] + b" x\n", False)):
            bad = b"".join(lines[:at] + [row] + lines[at + 1:])
            path.write_bytes(bad)
            with token_route(monkeypatch) as runs:
                got = outcome(read, path)
            start = len(b"".join(lines[:n_head]))
            holding = max(o for o, _ in hio._line_chunks(bad, start, len(bad))
                          if o <= len(b"".join(lines[:at])))
            assert list(runs) == [holding], (name, row)
            assert got == outcome(reference, bad), (name, row)
            assert (got == want) if valid else (got[0] == "error"), (name, row)


@pytest.mark.parametrize("chunk", [1, 7, 64])
@pytest.mark.parametrize("name, obj, message", [
    ("khg", random_hypergraph((5, 7, 4), seed=0), "duplicate edge"),
    ("w3g", WeightedTripartite(uniform_weights((6, 5, 7), seed=3)),
     "duplicate cell"),
])
def test_chunked_readers_catch_a_duplicate_across_chunks(tmp_path, monkeypatch,
                                                         chunk, name, obj, message):
    monkeypatch.setattr(hio, "_CHUNK_BYTES", chunk)
    _, read, reference, _ = FORMATS[name]
    path, raw = written(tmp_path, name, obj, "d1")
    lines = raw.splitlines(keepends=True)
    # the first row again, after the last one
    bad = b"".join(lines[:-1] + [lines[1], lines[-1]])
    start, stop = len(lines[0]), len(bad) - len(lines[-1])
    chunks = [piece for _, piece in hio._line_chunks(bad, start, stop)]
    assert chunks[0].startswith(lines[1]) and chunks[-1].endswith(lines[1])
    assert len(chunks) > 1
    path.write_bytes(bad)
    with pytest.raises(FormatError, match=message) as err:
        reference(bad)
    assert err.value.offset == stop - len(lines[1])
    with token_route(monkeypatch, allow=False):
        assert outcome(read, path) == outcome(reference, bad)


@pytest.mark.parametrize("chunk", [1, 64, None])
def test_w3g_cells_out_of_order_read_by_line(tmp_path, monkeypatch, chunk):
    # two cells swapped: no longer canonical, but the same relation
    if chunk is not None:
        monkeypatch.setattr(hio, "_CHUNK_BYTES", chunk)
    weighted = WeightedTripartite(uniform_weights((6, 5, 7), seed=3))
    path, raw = written(tmp_path, "w3g", weighted, "d1")
    lines = raw.splitlines(keepends=True)
    lines[5], lines[6] = lines[6], lines[5]
    swapped = b"".join(lines)
    path.write_bytes(swapped)
    # row order is no rule of the format, so the runs are read whole
    with token_route(monkeypatch, allow=False):
        assert hio.read_w3g(path).weights.tobytes() == weighted.weights.tobytes()
    assert outcome(hio.read_w3g, path) == outcome(reference_read_w3g, swapped)


AUDIT_HEAD = b"audit block 0.2 pass 0\n#normalized 0.0\n#weighted 0\n"


@pytest.mark.parametrize("chunk", [1, 64, None])
@pytest.mark.parametrize("raw, offset, message", [
    # a passing report with mass 0, though 0.5 is not within 0.2 of 0 or 1
    (AUDIT_HEAD + b"0 0 0.5 pass\n", 51,
     "verdict pass contradicts density 0.5 at eps 0.2"),
    (AUDIT_HEAD + b"0 0 0.0 pass\n0 1 0.7 pass\n# manifest d\n", 64,
     "verdict pass contradicts density 0.7 at eps 0.2"),
    (AUDIT_HEAD + b"0 0 nan pass\n", 51,
     "verdict pass contradicts density nan at eps 0.2"),
    (AUDIT_HEAD + b"0 0 1.0 fail\n", 51,
     "verdict fail contradicts density 1.0 at eps 0.2"),
    (b"audit block 0.2 pass 1\n#normalized 0.5\n#weighted 0\n0 0 0.5 fail\n",
     0, "verdict pass contradicts normalized mass 0.5 at eps 0.2"),
    (b"audit block 0.2 fail 0\n#normalized 0.0\n#weighted 0\n0 0 0.5 fail\n",
     0, "verdict fail contradicts normalized mass 0.0 at eps 0.2"),
    (AUDIT_HEAD + b"0 0 0.5 fail\n", 0, "mass 0 but a block tuple fails"),
    (b"audit block 0.2 fail 3\n#normalized 0.5\n#weighted 0\n0 0 0.0 pass\n",
     0, "mass 3 but every block tuple passes"),
])
def test_audit_verdicts_must_match_the_densities(tmp_path, monkeypatch, chunk,
                                                raw, offset, message):
    if chunk is not None:
        monkeypatch.setattr(hio, "_CHUNK_BYTES", chunk)
    path = tmp_path / "r.audit"
    path.write_bytes(raw)
    for read in (lambda: hio.read_audit(path), lambda: reference_read_audit(raw)):
        with pytest.raises(FormatError) as err, \
                token_route(monkeypatch, allow=False):
            read()
        assert err.value.offset == offset
        assert str(err.value) == f"byte {offset}: {message}"


@pytest.mark.parametrize("chunk", [1, 64, None])
@pytest.mark.parametrize("raw, offset", [
    (AUDIT_HEAD + b"0 0 0.0 pass\n0 1 0 0.0 pass\n", 64),
    (AUDIT_HEAD + b"# note\n0 0 0.0 pass\n1\t0.0 pass\n", 71),
])
def test_audit_rows_keep_the_width_of_the_first(tmp_path, monkeypatch, chunk, raw,
                                                offset):
    if chunk is not None:
        monkeypatch.setattr(hio, "_CHUNK_BYTES", chunk)
    path = tmp_path / "r.audit"
    path.write_bytes(raw)
    assert outcome(hio.read_audit, path) == outcome(reference_read_audit, raw) == (
        "error", offset, f"byte {offset}: expected 2 block labels")


@pytest.mark.parametrize("chunk", [1, 64, None])
def test_audit_with_matching_verdicts_reads_whole(tmp_path, monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(hio, "_CHUNK_BYTES", chunk)
    raw = (b"audit block 0.2 fail 2\n#normalized 0.5\n#weighted 0\n"
           b"0 0 0.0 pass\n0 1 nan fail\n1 0 1.0 pass\n1 1 0.5 fail\n")
    path = tmp_path / "r.audit"
    path.write_bytes(raw)
    with token_route(monkeypatch, allow=False):
        report = hio.read_audit(path)
    assert report.ok.tolist() == [True, False, True, False]
    assert outcome(hio.read_audit, path) == outcome(reference_read_audit, raw)


@pytest.mark.parametrize("chunk", [16, 64, None])
def test_hand_edited_khg_reads_only_the_inner_note_by_tokens(tmp_path, monkeypatch,
                                                             chunk):
    if chunk is not None:
        monkeypatch.setattr(hio, "_CHUNK_BYTES", chunk)
    h = random_hypergraph((5, 7, 4), seed=0)
    path, raw = written(tmp_path, "khg", h, "d1")
    lines = raw.splitlines(keepends=True)
    inner = len(lines) // 2
    edited = b"".join([lines[0], b"# note\n", *lines[1:inner], b"# note\n",
                       *lines[inner:]])
    path.write_bytes(edited)
    with token_route(monkeypatch) as runs:
        assert hio.read_khg(path) == h
    at = len(b"".join([lines[0], b"# note\n", *lines[1:inner]]))
    assert len(runs) == 1 and b"# note\n" in runs[max(runs)]
    assert max(runs) <= at < max(runs) + len(runs[max(runs)])
    assert outcome(hio.read_khg, path) == outcome(reference_read_khg, edited)


AUDIT_ROW = b"0 0 0.0 pass\n"


@pytest.mark.parametrize("raw, offset, message", [
    (b"audit block nan fail 1\n#normalized 0.0\n#weighted 0\n0 0 0.0 fail\n", 0,
     "eps nan outside [0, 1/2)"),
    (b"audit block -0.1 fail 1\n#normalized 0.0\n#weighted 0\n0 0 0.0 fail\n", 0,
     "eps -0.1 outside [0, 1/2)"),
    (b"audit block 0.5 pass 0\n#normalized 0.0\n#weighted 0\n" + AUDIT_ROW, 0,
     "eps 0.5 outside [0, 1/2)"),
    (b"audit block 0.7 pass 0\n#normalized 0.0\n#weighted 0\n" + AUDIT_ROW, 0,
     "eps 0.7 outside [0, 1/2)"),
    (b"audit block 0.2 fail -3\n#normalized 0.5\n#weighted 0\n0 0 0.5 fail\n", 0,
     "mass -3 is negative"),
    (b"audit block 0.2 pass 0\n#normalized -1.0\n#weighted 0\n" + AUDIT_ROW, 23,
     "normalized mass -1.0 outside [0, 1]"),
    (b"audit block 0.2 pass 0\n#normalized 0.0\n#weighted 7\n" + AUDIT_ROW, 39,
     "#weighted must be 0 or 1, got 7"),
    (b"audit block 0.2 fail 99999999999999999999\n#normalized 0.5\n#weighted 0\n"
     b"0 0 0.5 fail\n", 0, "bad integer: beyond 64 bits"),
])
def test_read_audit_refuses_header_values_no_audit_gives(tmp_path, raw, offset,
                                                         message):
    # the per-line reference read each of these as a report
    assert isinstance(reference_read_audit(raw), HomogeneityReport)
    path = tmp_path / "r.audit"
    path.write_bytes(raw)
    with pytest.raises(FormatError) as err:
        hio.read_audit(path)
    assert err.value.offset == offset
    assert str(err.value) == f"byte {offset}: {message}"


def test_read_digest_refuses_a_stamp_without_digest(tmp_path):
    path = tmp_path / "g.khg"
    path.write_bytes(b"khg 2 2 2\n0 1\n# manifest \n")
    with pytest.raises(FormatError) as err:
        hio.read_digest(path)
    assert err.value.offset == 14
    assert str(err.value) == "byte 14: manifest stamp names no digest"


@pytest.mark.parametrize("name, raw", [
    ("khg", b"khg 3 2 2 2\n0 0 0\n1 99999999999999999999 0\n"),
    ("khg", b"khg 3 2 2 2\n5 99999999999999999999 0\n"),
    ("khg", b"khg 2 2 3\n0 0\n0 -99999999999999999999\n"),
    ("w3g", b"w3g 2 2 2\n0 0 0 0.5\n1 0 99999999999999999999 0.5\n"),
    ("w3g", b"w3g 2 2 2\n-99999999999999999999 0 0 0.5\n"),
])
def test_vertex_beyond_64_bits_is_out_of_range(tmp_path, name, raw):
    read, reference = FORMATS[name][1:3]
    path = tmp_path / f"f.{name}"
    path.write_bytes(raw)
    expected = outcome(reference, raw)
    assert expected[0] == "error" and "out of range for part" in expected[2]
    assert outcome(read, path) == expected


@pytest.mark.parametrize("raw, offset", [
    (b"audit block 0.2 pass 0\n#normalized 0.0\n#weighted 0\n"
     b"0 99999999999999999999 1.0 pass\n", 51),
    (b"audit block 0.2 pass 0\n#normalized 0.0\n#weighted 0\n"
     b"0 0 1.0 pass\n0 99999999999999999999 1.0 pass\n", 64),
])
def test_audit_label_beyond_64_bits_is_a_format_error(tmp_path, raw, offset):
    # the per-line reference let numpy's OverflowError out
    with pytest.raises(OverflowError):
        reference_read_audit(raw)
    path = tmp_path / "r.audit"
    path.write_bytes(raw)
    with pytest.raises(FormatError) as err:
        hio.read_audit(path)
    assert err.value.offset == offset
    assert str(err.value) == f"byte {offset}: bad integer: beyond 64 bits"


@pytest.mark.parametrize("name, raw, offset, message", [
    ("khg", b"khg 2 99999999999999999999 2\n", 0, "bad integer: beyond 64 bits"),
    ("w3g", b"w3g 99999999999999999999 1 1\n", 0, "bad integer: beyond 64 bits"),
    ("khg", b"# sizes\nkhg 2 9223372036854775807 2\n", 8,
     "part sizes too large: (9223372036854775807, 2)"),
    ("khg", b"khg 3 3037000500 3037000500 2\n", 0,
     "part sizes too large: (3037000500, 3037000500, 2)"),
    ("w3g", b"\nw3g 2 9223372036854775807 1\n0 0 0 0.5\n", 1,
     "part sizes too large: (2, 9223372036854775807, 1)"),
])
def test_header_sizes_numpy_cannot_hold_are_format_errors(tmp_path, name, raw,
                                                         offset, message):
    # refused before any array is allocated; the per-line references
    # read the header with the unbounded _ints and let numpy's
    # ValueError out
    read, reference = FORMATS[name][1:3]
    with pytest.raises(ValueError) as bare:
        reference(raw)
    assert not isinstance(bare.value, FormatError)
    path = tmp_path / f"f.{name}"
    path.write_bytes(raw)
    with pytest.raises(FormatError) as err:
        read(path)
    assert err.value.offset == offset
    assert str(err.value) == f"byte {offset}: {message}"


@pytest.mark.parametrize("name, raw", [
    ("khg", b"khg 99999999999999999999 2 2\n0 0\n"),
    ("w3g", b"w3g 1 1 -99999999999999999999\n"),
])
def test_header_field_beyond_64_bits_is_named(tmp_path, name, raw):
    # the count and sign checks used to see these first
    path = tmp_path / f"f.{name}"
    path.write_bytes(raw)
    with pytest.raises(FormatError) as err:
        FORMATS[name][1](path)
    assert str(err.value) == "byte 0: bad integer: beyond 64 bits"


@pytest.mark.parametrize("name, raw, message", [
    ("khg", b"   \n", "empty file, expected a khg header"),
    ("w3g", b" \n# note\n\t \r\n", "empty file, expected a w3g header"),
    ("audit", b"\t", "empty file, expected an audit header"),
])
def test_header_line_of_blanks_is_a_format_error(tmp_path, name, raw, message):
    # a line of blanks is blank, not a header whose first token the
    # per-line references would index, so a file of nothing else is
    # empty
    read, reference = FORMATS[name][1:3]
    path = tmp_path / f"f.{name}"
    path.write_bytes(raw)
    for parse in (lambda: reference(raw), lambda: read(path)):
        with pytest.raises(FormatError) as err:
            parse()
        assert err.value.offset == 0
        assert str(err.value) == f"byte 0: {message}"


def blank_line_cases():
    """(format, object, equality) for each of the five formats."""
    table = {
        ((), 0): PartPartition([0, 1, 0, 1], part=0, equitable=True),
        (((0, 2), (1, 3)), 2): PartPartition([1, 2, 0, 1, 2], n_blocks=3,
                                             has_exceptional=True),
    }
    h = random_hypergraph((4, 6, 2), seed=11)
    report = homogeneity_audit(h, LayeredPartition([
        PartPartition.intervals(n, 2, part=i) for i, n in enumerate((4, 6, 2))
    ]), 0.2)
    weights = np.random.default_rng(11).random((3, 2, 4))
    weights[weights < 0.4] = 0.0
    layered = LayeredPartition([
        PartPartition([0, 1, 1, 2], part=0, n_blocks=4, has_exceptional=True),
        PartPartition([1, 0, 1, 0], part=1, equitable=True),
    ])
    return [
        ("khg", h, lambda a, b: a == b),
        ("w3g", WeightedTripartite(weights),
         lambda a, b: np.array_equal(a.weights, b.weights)),
        ("part", layered, lambda a, b: a == b and all(
            (p.n_blocks, p.has_exceptional, p.equitable)
            == (q.n_blocks, q.has_exceptional, q.equitable)
            for p, q in zip(a, b))),
        ("audit", report, lambda a, b: a == b),
        ("links", (table, 3), lambda a, b: a[1] == b[1] and a[0] == b[0]),
    ]


@pytest.mark.parametrize("name, obj, same", blank_line_cases(),
                         ids=["khg", "w3g", "part", "audit", "links"])
@pytest.mark.parametrize("where", ["before header", "body", "end"])
@pytest.mark.parametrize("blank", [b"   ", b"\t", b" \t\r"],
                         ids=["spaces", "tab", "mixed"])
def test_line_of_blanks_is_blank(tmp_path, name, obj, same, where, blank):
    # a line of only spaces and tabs is no data line, wherever it
    # stands: the file reads as if it were absent
    path = tmp_path / f"f.{name}"
    write, read = getattr(hio, f"write_{name}"), getattr(hio, f"read_{name}")
    if name == "links":
        write(path, *obj)
    else:
        write(path, obj)
    lines = path.read_bytes().split(b"\n")
    at = {"before header": 0, "body": 2, "end": len(lines)}[where]
    lines[at:at] = [blank]
    path.write_bytes(b"\n".join(lines))
    assert path.read_bytes().count(blank) >= 1
    assert same(read(path), obj)
    if name in FORMATS:
        assert same(FORMATS[name][2](path.read_bytes()), obj)


@pytest.mark.parametrize("name, raw, offset, message", [
    ("part", b"   \n0 1\n", 4, "expected header 'part k'"),
    ("links", b"  \nx\n", 3, "expected header 'links r'"),
    ("part", b"part 1\n0 99999999999999999999\n", 7, "bad integer: beyond 64 bits"),
    ("part", b"part 99999999999999999999\n0 0\n", 0, "bad integer: beyond 64 bits"),
    ("links", b"links 2\n- 0 2 0 0 0 0 99999999999999999999\n", 8,
     "bad integer: beyond 64 bits"),
    ("part", b"part 1\n#meta 0 part=0 exceptional=0 equitable=1 "
     b"nblocks=99999999999999999999\n0 0\n", 7, "bad integer: beyond 64 bits"),
    ("part", b"part 1\n#meta 0 part=-99999999999999999999 exceptional=0 "
     b"equitable=1 nblocks=1\n0 0\n", 7, "bad integer: beyond 64 bits"),
    ("part", b"part 1\n#meta 0 part=0 exceptional=99999999999999999999 "
     b"equitable=0 nblocks=1\n0 0\n", 7, "bad integer: beyond 64 bits"),
    ("links", b"links 99999999999999999999\n", 0, "bad integer: beyond 64 bits"),
    ("links", b"links 2\n- 0 99999999999999999999 0 0 0 0 1\n", 8,
     "bad integer: beyond 64 bits"),
    ("links", b"links 2\n- 99999999999999999999 2 0 0 0 0 1\n", 8,
     "bad integer: beyond 64 bits"),
    ("links", b"links 2\n- 0 2 0 99999999999999999999 0 0 1\n", 8,
     "bad integer: beyond 64 bits"),
    ("links", b"links 2\n- 0 2 0 0 99999999999999999999 0 1\n", 8,
     "bad integer: beyond 64 bits"),
    ("links", b"links 2\n0:99999999999999999999 1 2 0 0 0 0 1\n", 8,
     "bad integer: beyond 64 bits"),
])
def test_part_and_links_readers_raise_format_errors(tmp_path, name, raw, offset,
                                                    message):
    # a header line of blanks raised IndexError (it is blank now, and
    # the next line is the header), a label or #meta value
    # beyond 64 bits numpy's OverflowError, a .links field other than the
    # labels beyond 64 bits was read as it stood, and a .part header k
    # beyond 64 bits was only compared with the count of label lines
    path = tmp_path / f"f.{name}"
    path.write_bytes(raw)
    with pytest.raises(FormatError) as err:
        getattr(hio, f"read_{name}")(path)
    assert err.value.offset == offset
    assert str(err.value) == f"byte {offset}: {message}"


def test_read_audit_peak_memory_is_bounded(tmp_path):
    """The files benchmark's audit shape, 48^3 singleton block tuples:
    a 1.9 MB file whose report holds 3.6 MB of arrays."""
    import tracemalloc

    n = 48
    inst = generate(InstanceSpec(k=3, n=(n,) * 3, family="planted-boxes",
                                 r=16, eps_prime=0.1, seed=1))
    report = homogeneity_audit(inst.h, LayeredPartition(
        [PartPartition.singletons(n, part=i) for i in range(3)]), 0.2)
    path = tmp_path / "r.audit"
    hio.write_audit(path, report, digest="0" * 64)
    tracemalloc.start()
    try:
        back = hio.read_audit(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back == report and back.densities.size == n**3
    assert "labels" not in back.__dict__
    assert peak < 10 * 2**20


@pytest.mark.parametrize("name", ["w3g", "audit"])
def test_long_float_token_reads_in_bounded_memory(tmp_path, name):
    # one weight or density padded with 32 KiB of zeros among 512
    # canonical rows: a key grid as wide as that token for every row
    # would take 16 MB
    import re
    import tracemalloc

    n = 8
    path = tmp_path / f"f.{name}"
    if name == "w3g":
        rng = np.random.default_rng(3)
        value = WeightedTripartite(rng.integers(1, 100, (n,) * 3) / 100)
        hio.write_w3g(path, value)
        token = rb"\n\d+ \d+ \d+ (\d+\.\d+)\n"
    else:
        inst = generate(InstanceSpec(k=3, n=(n,) * 3, family="planted-boxes",
                                     r=4, eps_prime=0.1, seed=1))
        value = homogeneity_audit(inst.h, LayeredPartition(
            [PartPartition.singletons(n, part=i) for i in range(3)]), 0.2)
        hio.write_audit(path, value)
        token = rb"\n\d+ \d+ \d+ (\d+\.\d+) (?:pass|fail)\n"
    read = getattr(hio, f"read_{name}")

    def same(back):
        if name == "w3g":
            return np.array_equal(back.weights, value.weights)
        return back == value

    # untraced, so that numpy.ma, which numpy imports on the first
    # np.unique call, does not count against the file
    assert same(read(path))
    raw = path.read_bytes()
    end = re.compile(token).search(raw, len(raw) // 2).end(1)
    raw = raw[:end] + b"0" * 2**15 + raw[end:]
    path.write_bytes(raw)
    tracemalloc.start()
    try:
        back = read(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert same(back)
    assert peak < 16 * len(raw)


def test_write_audit_peak_memory_is_bounded(tmp_path):
    """The analyze benchmark's planted audit at n=144, 144^3 block
    tuples: a 56 MB file, written with a manifest stamp."""
    import tracemalloc

    n = 144
    inst = generate(InstanceSpec(k=3, n=(n,) * 3, family="planted-boxes",
                                 r=3, eps_prime=0.1, seed=1))
    report = homogeneity_audit(inst.h, LayeredPartition([
        PartPartition(np.arange(1, n + 1), part=i, n_blocks=n + 1,
                      has_exceptional=True) for i in range(3)]), 0.2)
    path = tmp_path / "r.audit"
    tracemalloc.start()
    try:
        hio.write_audit(path, report, digest="0" * 64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert "labels" not in report.__dict__
    raw = path.read_bytes()
    assert raw.count(b"\n") == 3 + n**3 + 1
    assert raw.startswith(b"audit block 0.2 pass 0\n#normalized 0.0\n#weighted 0\n")
    assert raw.endswith(b"\n144 144 144 0.0 pass\n# manifest " + b"0" * 64 + b"\n")


def test_write_w3g_from_layers_builds_no_tensor(tmp_path):
    params = build_sequence(1e-6, 0.5, mode="toy", t=3, growth=2, s0=4, seed=2)
    weighted = build_weighted(params, 24).weighted
    hio.write_w3g(tmp_path / "layers.w3g", weighted, digest="d1")
    assert weighted._weights is None
    hio.write_w3g(tmp_path / "dense.w3g", WeightedTripartite(weighted.weights),
                  digest="d1")
    assert ((tmp_path / "layers.w3g").read_bytes()
            == (tmp_path / "dense.w3g").read_bytes())


# --- manifests ------------------------------------------------------------


def test_manifest_digest_ignores_timing_and_outputs():
    a = RunManifest(command="gen", params={"n": [6]}, seed=1, mode="-")
    b = RunManifest(command="gen", params={"n": [6]}, seed=1, mode="-",
                    outputs={"x": "00"}, timing=5.0)
    assert a.digest() == b.digest()
    c = RunManifest(command="gen", params={"n": [7]}, seed=1, mode="-")
    assert a.digest() != c.digest()
    d = RunManifest(command="gen", params={"n": [6]}, seed=2, mode="-")
    assert a.digest() != d.digest()


def test_manifest_round_trip(tmp_path):
    man = RunManifest(
        command="audit", params={"eps": 0.2}, seed=3, mode="practical",
        inputs={"instance": "ab"}, outputs={"report.audit": "cd"}, timing=0.5,
    )
    path = tmp_path / "manifest.json"
    man.write(path)
    back = RunManifest.read(path)
    assert back == man
    assert back.digest() == man.digest()


def test_manifest_tamper_detected(tmp_path):
    man = RunManifest(command="gen", params={}, seed=0, mode="-")
    path = tmp_path / "manifest.json"
    man.write(path)
    payload = json.loads(path.read_text())
    payload["seed"] = 9
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="digest mismatch"):
        RunManifest.read(path)


def test_file_digest_matches_content(tmp_path):
    p1 = tmp_path / "a"
    p2 = tmp_path / "b"
    p1.write_bytes(b"same")
    p2.write_bytes(b"same")
    assert file_digest(p1) == file_digest(p2)
    p2.write_bytes(b"other")
    assert file_digest(p1) != file_digest(p2)


# --- generator examples ---------------------------------------------------


def test_product_instance_constant_third_axis():
    inst = generate(InstanceSpec(
        k=3, n=(60, 60, 60), family="product", r=3, eps_prime=0.1, seed=7,
    ))
    dense = inst.h.to_dense()
    base = link(inst.h, ((2, 0),)).to_dense()
    for c in range(60):
        assert np.array_equal(dense[:, :, c], base)
    # planted structure never exceeds r blocks per side
    assert inst.side_partitions[0].n_blocks <= 3
    assert inst.side_partitions[1].n_blocks <= 3
    assert inst.exact_links


def test_planted_instance_audits_clean():
    inst = generate(InstanceSpec(
        k=3, n=(24, 24, 24), family="planted-boxes", r=3, eps_prime=0.1,
        seed=11,
    ))
    layered = LayeredPartition([inst.side_partitions[i] for i in range(3)])
    report = homogeneity_audit(inst.h, layered, 0.2)
    assert report.passed
    assert report.mass == 0


def test_uniform_random_vc_grows():
    values = []
    for n in (6, 8, 10):
        inst = generate(InstanceSpec(
            k=3, n=(n, n, n), family="uniform-random", r=2, eps_prime=0.1,
            seed=0,
        ))
        values.append(slicewise_vc(inst.h)["max"])
    assert values == sorted(values)
    assert values[-1] > values[0]


# --- CLI ------------------------------------------------------------------


def run_cli(argv):
    return main([str(a) for a in argv])


def test_cli_gen_writes_instance_and_sidecar(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli(["gen", "--family", "product", "--n", 60, "--seed", 7,
                    "--out", out]) == 0
    assert (out / "instance.khg").exists()
    assert (out / "instance.links").exists()
    man = RunManifest.read(out / "manifest.json")
    assert man.command == "gen"
    assert man.params["n"] == [60, 60, 60]
    # artifacts carry the manifest's core digest
    assert hio.read_digest(out / "instance.khg") == man.digest()
    assert hio.read_digest(out / "instance.links") == man.digest()
    assert man.outputs["instance.khg"] == file_digest(out / "instance.khg")


def test_cli_homogenize_passes_on_planted(tmp_path, capsys):
    gen_out = tmp_path / "gen"
    run_cli(["gen", "--family", "planted-boxes", "--n", 24, "--seed", 3,
             "--out", gen_out])
    hom_out = tmp_path / "hom"
    code = run_cli([
        "homogenize", gen_out / "instance.khg",
        "--links", gen_out / "instance.links",
        "--eps", 0.2, "--out", hom_out,
    ])
    assert code == 0
    assert (hom_out / "partition.part").exists()
    report = hio.read_audit(hom_out / "report.audit")
    assert report.passed
    text = capsys.readouterr().out
    assert "pass" in text
    # the emitted partition audits clean against the instance
    h = hio.read_khg(gen_out / "instance.khg")
    partition = hio.read_part(hom_out / "partition.part")
    assert homogeneity_audit(h, partition, 0.2).passed


def test_cli_links_file_changes_only_the_stamps(tmp_path, capsys):
    gen_out = tmp_path / "gen"
    run_cli(["gen", "--family", "planted-boxes", "--n", 24, "--r", 3,
             "--seed", 3, "--out", gen_out])
    with_links, without = tmp_path / "links", tmp_path / "bare"
    assert run_cli(["homogenize", gen_out / "instance.khg",
                    "--links", gen_out / "instance.links",
                    "--out", with_links]) == 0
    assert run_cli(["homogenize", gen_out / "instance.khg",
                    "--out", without]) == 0

    def split(path):
        lines = path.read_text().splitlines()
        stamps = [ln for ln in lines if ln.startswith("# manifest ")]
        return [ln for ln in lines if ln not in stamps], stamps

    for name in ("partition.part", "report.audit"):
        rows_links, stamp_links = split(with_links / name)
        rows_bare, stamp_bare = split(without / name)
        assert rows_links == rows_bare
        # the manifests list different inputs, so only the stamps differ
        assert stamp_links != stamp_bare


def test_cli_homogenize_manifest_records_params_and_links_digest(tmp_path,
                                                                 capsys):
    gen_out, hom_out = tmp_path / "gen", tmp_path / "hom"
    run_cli(["gen", "--family", "planted-boxes", "--n", 24, "--r", 5,
             "--seed", 3, "--out", gen_out])
    assert run_cli(["homogenize", gen_out / "instance.khg",
                    "--links", gen_out / "instance.links",
                    "--out", hom_out]) == 0
    man = RunManifest.read(hom_out / "manifest.json")
    assert man.params == {"eps": 0.2, "max_anchors": 512}
    assert man.mode == "-"
    assert man.inputs["links"] == file_digest(gen_out / "instance.links")


def test_cli_audit_agrees_with_homogenize(tmp_path, capsys):
    gen_out = tmp_path / "gen"
    run_cli(["gen", "--family", "planted-boxes", "--n", 24, "--seed", 5,
             "--out", gen_out])
    hom_out = tmp_path / "hom"
    run_cli(["homogenize", gen_out / "instance.khg",
             "--links", gen_out / "instance.links", "--eps", 0.2,
             "--out", hom_out])
    audit_out = tmp_path / "audit"
    code = run_cli(["audit", gen_out / "instance.khg",
                    hom_out / "partition.part", "--eps", 0.2,
                    "--out", audit_out])
    assert code == 0
    assert hio.read_audit(audit_out / "report.audit") == \
        hio.read_audit(hom_out / "report.audit")


def test_cli_artifact_digests_are_pinned(tmp_path, capsys):
    # the README's gen/homogenize/audit chain, then certificates at n=144
    out = tmp_path / "out"
    for argv in (
        ["gen", "--family", "product", "--n", 60, "--seed", 7, "--out", out],
        ["homogenize", out / "instance.khg", "--links", out / "instance.links",
         "--eps", 0.2, "--out", out / "hom"],
        ["audit", out / "instance.khg", out / "hom" / "partition.part",
         "--eps", 0.2, "--out", out / "audit"],
        ["gowers", "links", "--toy", "--t", 3, "--n", 144, "--seed", 1,
         "--out", out / "links"],
    ):
        assert run_cli(argv) == 0, argv
    pinned = {
        "audit/report.audit":
            "bfa0fc513ce08c7a4098f69c655e554e85d3031f296458e87356c1b69aa1d12a",
        "links/certificates.links":
            "8f552ce1ef7d9b40d35b37fbb09cd37579c64172fabf9e18cf98c567efcf43a3",
    }
    for name, digest in pinned.items():
        assert file_digest(out / name) == digest, (
            f"{name} changed; its digest was reproduced on numpy 2.4.6 and "
            f"Python 3.11.7, this is numpy {np.__version__} and Python "
            f"{platform.python_version()}")
    # without its manifest stamps the audit pins content alone, so a
    # change that moves only a manifest leaves this digest as it is
    lines = (out / "audit" / "report.audit").read_bytes().splitlines(True)
    content = b"".join(ln for ln in lines if not ln.startswith(b"# manifest "))
    assert hashlib.sha256(content).hexdigest() == (
        "f50628cca2e0b890f84754b03d8649a395341c7abc769e8b3496734d236b93ff")


NUMPY_MA_PROBE = """
import contextlib, io, sys
from homopart import InstanceSpec, generate, slicewise_vc
from homopart import io as hio
from homopart.cli import main
out = sys.argv[1] + "/"
chain = [
    ["gen", "--family", "product", "--n", "60", "--seed", "7", "--out", out],
    ["homogenize", out + "instance.khg", "--links", out + "instance.links",
     "--eps", "0.2", "--out", out + "hom"],
    ["audit", out + "instance.khg", out + "hom/partition.part", "--eps", "0.2",
     "--out", out + "audit"],
    ["vc", out + "instance.khg", "--out", out + "vc"],
    ["gowers", "build", "--toy", "--t", "3", "--n", "120", "--seed", "1",
     "--out", out + "build"],
    ["gowers", "links", "--toy", "--t", "3", "--n", "120", "--seed", "1",
     "--out", out + "links"],
    ["gowers", "sample", "--toy", "--t", "2", "--n", "24", "--out", out + "sample"],
    ["gowers", "cascade", "--toy", "--t", "3", "--n", "120", "--out", out + "cascade"],
    ["gowers", "build", "--toy", "--t", "2", "--n", "24", "--out", out + "small"],
    ["audit", out + "small/gowers.w3g", out + "small/layering.part",
     "--out", out + "audit_w3g"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in chain]
hio.read_audit(out + "audit/report.audit")
slicewise_vc(generate(InstanceSpec(k=3, n=(24, 24, 24), family="product", r=3,
                                   eps_prime=0.1, seed=1)).h)
print(codes, "numpy.ma" in sys.modules)
"""


def test_readme_chain_never_imports_numpy_ma(tmp_path):
    # under numpy 2.4 a plain np.unique or np.union1d imports numpy.ma,
    # 1.5-1.8 MB of RSS; the readers and the VC search dedupe by sorting
    src = os.path.dirname(os.path.dirname(hio.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", NUMPY_MA_PROBE, str(tmp_path)],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["[0,", "0,", "0,", "0,", "0,", "0,", "0,",
                                  "0,", "0,", "1]", "False"]


def test_cli_audit_failure_exits_one(tmp_path, capsys):
    h = random_hypergraph((6, 6, 6), seed=9)
    path = tmp_path / "g.khg"
    hio.write_khg(path, h)
    flat = LayeredPartition([
        PartPartition(np.zeros(6, dtype=int), part=i) for i in range(3)
    ])
    ppath = tmp_path / "p.part"
    hio.write_part(ppath, flat)
    code = run_cli(["audit", path, ppath, "--eps", 0.2,
                    "--out", tmp_path / "out"])
    assert code == 1
    report = hio.read_audit(tmp_path / "out" / "report.audit")
    assert not report.passed


@pytest.mark.parametrize("eps", [0.6, 2, -0.1])
def test_cli_audit_eps_outside_range_exits_two(tmp_path, capsys, eps):
    # from eps 1/2 on every density counts as homogeneous, so this
    # flat partition, which fails at 0.2, would pass
    h = random_hypergraph((6, 6, 6), seed=9)
    path = tmp_path / "g.khg"
    hio.write_khg(path, h)
    flat = LayeredPartition([
        PartPartition(np.zeros(6, dtype=int), part=i) for i in range(3)
    ])
    ppath = tmp_path / "p.part"
    hio.write_part(ppath, flat)
    out = tmp_path / "out"
    assert run_cli(["audit", path, ppath, "--eps", eps, "--out", out]) == 2
    assert f"eps={float(eps)} outside [0, 1/2)" in capsys.readouterr().err
    assert not out.exists()


def test_cli_vc_tripartite(tmp_path, capsys):
    gen_out = tmp_path / "gen"
    run_cli(["gen", "--family", "uniform-random", "--n", 8, "--seed", 0,
             "--out", gen_out])
    code = run_cli(["vc", gen_out / "instance.khg", "--out", tmp_path / "vc"])
    assert code == 0
    text = (tmp_path / "vc" / "vc.txt").read_text()
    assert text.startswith("vc 3\n")
    assert "max 3" in text


def test_cli_coverage_negative_control(tmp_path, capsys):
    gen_out = tmp_path / "gen"
    run_cli(["gen", "--family", "uniform-random", "--n", 10, "--seed", 3,
             "--out", gen_out])
    code = run_cli(["homogenize", gen_out / "instance.khg", "--eps", 0.2,
                    "--max-anchors", 8, "--out", tmp_path / "hom"])
    assert code == 1
    err = capsys.readouterr().err
    assert "uncovered" in err
    # report names the actual uncovered mass
    assert any(tok.isdigit() and int(tok) > 0 for tok in err.split())


def test_cli_malformed_file_offset(tmp_path, capsys):
    path = tmp_path / "bad.khg"
    path.write_bytes(b"khg 3 4 4 4\n0 0 bad\n")
    code = run_cli(["homogenize", path, "--eps", 0.2,
                    "--out", tmp_path / "out"])
    assert code == 2
    assert "byte 12" in capsys.readouterr().err


@pytest.mark.parametrize("graph, part, offset", [
    (b"khg 1 5\n0\n", b"part 1\n0 0 0 0 0\n", 0),
    (b"khg 3 0 4 4\n", b"part 3\n0\n0 0 0 0\n0 0 0 0\n", 0),
    (b"khg 3 1 1 1\n0 0 0\n", b"# c\npart 0\n", 4),
    (b"khg 3 1 1 1\n0 0 0\n0 0 0\n", b"part 3\n0\n0\n0\n", 18),
    (b"w3g 1 1 1\n0 0 0 0.5\n0 0 0 0.25\n", b"part 3\n0\n0\n0\n", 20),
])
def test_cli_audit_bad_input_exits_two(tmp_path, capsys, graph, part, offset):
    suffix = ".w3g" if graph.startswith(b"w3g") else ".khg"
    graph_path = tmp_path / ("g" + suffix)
    graph_path.write_bytes(graph)
    part_path = tmp_path / "p.part"
    part_path.write_bytes(part)
    code = run_cli(["audit", graph_path, part_path, "--out", tmp_path / "out"])
    assert code == 2
    assert f"error: byte {offset}: " in capsys.readouterr().err


def test_cli_malformed_links_pin(tmp_path, capsys):
    gen_out = tmp_path / "gen"
    run_cli(["gen", "--family", "planted-boxes", "--n", 8, "--seed", 3,
             "--out", gen_out])
    links = tmp_path / "bad.links"
    links.write_bytes(b"links 2\n0:x 1 1 0 0 1 0 0 0 0 0 0 0 0\n")
    code = run_cli(["homogenize", gen_out / "instance.khg",
                    "--links", links, "--eps", 0.2,
                    "--out", tmp_path / "out"])
    assert code == 2
    assert "byte 8" in capsys.readouterr().err


def test_cli_gowers_growth_overflow_exits_two(tmp_path, capsys):
    code = run_cli(["gowers", "build", "--mode", "paper", "--eps", "1e-40",
                    "--delta", "1e-40", "--n", 8, "--out", tmp_path / "out"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: growth(")


def test_cli_usage_error(capsys):
    assert run_cli(["nosuch"]) == 2
    assert run_cli([]) == 2


def test_cli_removed_options_are_usage_errors(tmp_path, capsys):
    out = ["--out", tmp_path / "out"]
    assert run_cli(["audit", "g.khg", "p.part", "--kind", "x", *out]) == 2
    assert run_cli(["homogenize", "g.khg", "--eps-prime", 0.1, *out]) == 2
    assert run_cli(["homogenize", "g.khg", "--mode", "practical", *out]) == 2
    assert run_cli(["homogenize", "g.khg", "--r", 3, *out]) == 2
    assert run_cli(["gowers", "cascade", "--toy", "--n", 8,
                    "--search-draws", 5, *out]) == 2
    assert capsys.readouterr().err.count("unrecognized arguments") == 5
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["bench"],
    ["gen", "--family", "product", "--n", 6, "--eps", 0.1],
    ["vc", "g.khg", "--mode", "paper"],
    ["audit", "g.khg", "p.part", "--delta", 0.5],
    ["audit", "g.khg", "p.part", "--seed", 1],
    ["homogenize", "g.khg", "--delta", 0.5],
    ["homogenize", "g.khg", "--mode", "toy"],
    ["gowers", "build", "--n", 8, "--mode", "practical"],
    ["homogenize", "g.khg", "--max-anchors", 0],
], ids=lambda argv: " ".join(str(a) for a in argv))
def test_cli_flags_a_command_does_not_read_are_usage_errors(tmp_path, capsys,
                                                            argv):
    out = tmp_path / "out"
    assert run_cli([*argv, "--out", out]) == 2
    assert "usage:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cap", ["0", "-1", "x"])
def test_cli_vc_cap_below_one_is_usage_error(tmp_path, capsys, cap):
    out = tmp_path / "out"
    assert run_cli(["vc", "g.khg", "--cap", cap, "--out", out]) == 2
    assert "--cap" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("draws", ["0", "-5", "x"])
def test_cli_gowers_links_draws_below_one_is_usage_error(tmp_path, capsys, draws):
    # n=48 puts the quasirandom level past the exact search, so a draw
    # count of 0 would otherwise pass every certificate without a search
    out = tmp_path / "out"
    code = run_cli(["gowers", "links", "--toy", "--t", 3, "--s0", 4, "--n", 48,
                    "--draws", draws, "--out", out])
    assert code == 2
    assert "--draws" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [
    ("--boxes", "-1"), ("--boxes", "x"),
    ("--fraction", "1.5"), ("--fraction", "0"), ("--fraction", "-0.5"),
    ("--fraction", "nan"),
])
def test_cli_gowers_sample_bad_box_settings_are_usage_errors(tmp_path, capsys,
                                                             flag, value):
    out = tmp_path / "out"
    code = run_cli(["gowers", "sample", "--toy", "--t", 2, "--n", 24,
                    flag, value, "--out", out])
    assert code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_cli_gowers_sample_edge_box_settings(tmp_path, capsys):
    base = ["gowers", "sample", "--toy", "--t", 2, "--n", 24]
    assert run_cli([*base, "--boxes", 0, "--out", tmp_path / "none"]) == 0
    assert "within=0/0" in capsys.readouterr().out
    assert run_cli([*base, "--fraction", 1, "--boxes", 3,
                    "--out", tmp_path / "whole"]) == 0
    assert "within=3/3" in capsys.readouterr().out


def test_cli_infeasible_params(tmp_path, capsys):
    code = run_cli(["gowers", "build", "--toy", "--t", 3, "--n", 121,
                    "--out", tmp_path / "out"])
    assert code == 2
    assert "divisible" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--eps", 2], "eps=2.0 out of range"),
    (["--s0", 1], "s0=1 must be at least 2"),
    (["--t", 0], "t=0"),
    (["--mode", "paper"], "delta <= eps"),
])
def test_cli_gowers_build_bad_params_exit_two(tmp_path, capsys, flags, message):
    out = tmp_path / "out"
    code = run_cli(["gowers", "build", "--toy", "--n", 48, "--s0", 4, *flags,
                    "--out", out])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: " in err and message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_gowers_cascade_bad_candidate_exits_two(tmp_path, capsys):
    flags = ["--toy", "--n", 48, "--s0", 4]
    assert run_cli(["gowers", "build", *flags, "--out", tmp_path / "build"]) == 0
    # the finest layering is a valid partition but not an equitable candidate
    code = run_cli(["gowers", "cascade", *flags,
                    "--candidate", tmp_path / "build" / "layering.part",
                    "--out", tmp_path / "uneven"])
    assert code == 2
    assert "candidate blocks span 6..16" in capsys.readouterr().err
    small = tmp_path / "small.part"
    hio.write_part(small, LayeredPartition([
        PartPartition.intervals(24, 2, part=i) for i in range(3)
    ]))
    code = run_cli(["gowers", "cascade", *flags, "--candidate", small,
                    "--out", tmp_path / "small"])
    assert code == 2
    assert "candidate part 0 does not cover 48 vertices" in \
        capsys.readouterr().err
    assert not (tmp_path / "uneven").exists()
    assert not (tmp_path / "small").exists()


def test_cli_audit_partition_of_wrong_size_exits_two(tmp_path, capsys):
    graph = tmp_path / "g12.khg"
    hio.write_khg(graph, random_hypergraph((12, 12, 12), seed=4))
    part = tmp_path / "p10.part"
    hio.write_part(part, LayeredPartition([
        PartPartition.intervals(10, 2, part=i) for i in range(3)
    ]))
    out = tmp_path / "out"
    assert run_cli(["audit", graph, part, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "error: partition part 0 has 10 vertices, graph part 0 has 12" in err
    assert not out.exists()


def test_cli_gowers_build_and_links(tmp_path, capsys):
    build_out = tmp_path / "build"
    flags = ["--toy", "--t", 3, "--n", 120, "--seed", 1]
    assert run_cli(["gowers", "build", *flags, "--out", build_out]) == 0
    weighted = hio.read_w3g(build_out / "gowers.w3g")
    assert weighted.weights.shape == (120, 120, 120)
    layering = hio.read_part(build_out / "layering.part")
    assert layering.block_counts() == (8, 8, 3)

    links_out = tmp_path / "links"
    assert run_cli(["gowers", "links", *flags, "--out", links_out]) == 0
    text = capsys.readouterr().out
    assert "n=360" in text
    assert "failures=0" in text
    assert "quasirandom" not in text  # every certificate is exact-kind
    table, _ = hio.read_links(links_out / "certificates.links")
    assert len(table) == 720  # two stored partitions per pinned vertex
    pins = {key[0] for key in table}
    assert len(pins) == 360


def test_cli_gowers_sample(tmp_path, capsys):
    out = tmp_path / "sample"
    code = run_cli(["gowers", "sample", "--toy", "--t", 2, "--n", 24,
                    "--seed", 2, "--out", out])
    assert code == 0
    sampled = hio.read_khg(out / "sampled.khg")
    assert sampled.part_sizes == (24, 24, 24)
    assert "full_within=True" in capsys.readouterr().out


def test_cli_gowers_cascade(tmp_path, capsys):
    out = tmp_path / "cascade"
    code = run_cli(["gowers", "cascade", "--toy", "--t", 2, "--n", 8,
                    "--seed", 0, "--out", out])
    assert code == 0
    text = (out / "cascade.txt").read_text()
    assert "witness" in text
    assert "level 1" in text


# --- determinism ----------------------------------------------------------


def artifact_bytes(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        data = (directory / name).read_bytes()
        if name == "manifest.json":
            payload = json.loads(data)
            payload.pop("timing")  # wall-clock time differs between runs
            data = json.dumps(payload, sort_keys=True).encode("ascii")
        out[name] = data
    return out


def test_cli_rerun_byte_identical(tmp_path):
    tower = ["--toy", "--t", 2, "--n", 24, "--seed", 1]

    def chain(label):
        """(stage, argv, expected exit code) for one rerun."""
        gen, hom, build = (tmp_path / f"{stage}-{label}"
                           for stage in ("gen", "hom", "build"))
        return [
            ("gen", ["gen", "--family", "planted-boxes", "--n", 24,
                     "--seed", 5], 0),
            ("hom", ["homogenize", gen / "instance.khg",
                     "--links", gen / "instance.links", "--eps", 0.2], 0),
            ("audit", ["audit", gen / "instance.khg",
                       hom / "partition.part"], 0),
            ("vc", ["vc", gen / "instance.khg"], 0),
            ("build", ["gowers", "build", *tower], 0),
            # densities 1/2 and 1/4 of the weights fail the audit
            ("audit_w3g", ["audit", build / "gowers.w3g",
                           build / "layering.part"], 1),
            ("links", ["gowers", "links", *tower], 0),
            ("sample", ["gowers", "sample", *tower], 0),
            ("cascade", ["gowers", "cascade", *tower,
                         "--candidate", hom / "partition.part"], 0),
        ]

    for label in ("a", "b"):
        for stage, argv, expected in chain(label):
            out = tmp_path / f"{stage}-{label}"
            assert run_cli([*argv, "--out", out]) == expected, stage
    for stage, _, _ in chain("a"):
        a = artifact_bytes(tmp_path / f"{stage}-a")
        b = artifact_bytes(tmp_path / f"{stage}-b")
        assert len(a) > 1 and a == b, f"{stage} artifacts differ between reruns"


def test_manifest_core_identical_across_reruns(tmp_path):
    for label in ("a", "b"):
        run_cli(["gen", "--family", "product", "--n", 12, "--seed", 2,
                 "--out", tmp_path / label])
    ma = RunManifest.read(tmp_path / "a" / "manifest.json")
    mb = RunManifest.read(tmp_path / "b" / "manifest.json")
    assert ma.digest() == mb.digest()
    assert ma.outputs == mb.outputs
