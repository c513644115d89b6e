"""Wire formats and report assembly.

Spaces travel as JSON {points, dist} or as a labeled distance-matrix CSV;
towers as JSON {height, nodes}.  Values follow one rule everywhere:
integers bare, anything else "p/q".  Emission is deterministic so reruns
of the same configuration are byte-identical.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import warnings
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

import numpy as np

from .limits import Caps, DEFAULT_CAPS
from .rationals import rat_from_json, rat_json, rat_parse, rat_str
from .spaces import Space, _compact, _encode_cells
from .towers import Tower

__all__ = [
    "space_to_json",
    "space_from_json",
    "space_to_csv",
    "space_from_csv",
    "tower_to_json",
    "tower_from_json",
    "multimap_to_json",
    "content_hash",
    "tower_hash",
    "dump_json",
    "dump_csv",
    "pipeline_report",
]

_INT32 = np.iinfo(np.int32)


def space_to_json(space: Space) -> dict:
    dist = [
        [rat_json(space.values[int(c)]) for c in row]
        for row in space.codes
    ]
    return {"points": list(space.points), "dist": dist}


def space_from_json(data: dict, caps: Caps = DEFAULT_CAPS) -> Space:
    if not isinstance(data, dict) or "points" not in data or "dist" not in data:
        raise ValueError("space JSON needs 'points' and 'dist'")
    points = data["points"]
    if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
        raise ValueError("'points' must be a list of id strings")
    n = len(points)
    dist = data["dist"]
    if not isinstance(dist, list) or len(dist) != n or any(
            not isinstance(row, list) or len(row) != n for row in dist):
        raise ValueError(f"'dist' must be a {n}x{n} matrix")
    rows = [[rat_from_json(v) for v in row] for row in dist]
    return Space.from_matrix(points, rows, caps=caps)


def space_to_csv(space: Space) -> str:
    lines = ["id," + ",".join(space.points)]
    for i, p in enumerate(space.points):
        row = ",".join(
            rat_str(space.values[int(c)]) for c in space.codes[i])
        lines.append(f"{p},{row}")
    return "\n".join(lines) + "\n"


_BLOCK_CELLS = 1 << 18  # cells parsed by one np.fromstring call


def _int_cells(bodies: list, n: int) -> Optional[np.ndarray]:
    """The n cells of each row body as one int64 array, read as int reads
    each one, or None when a row does not hold n cells or any cell may not
    be read so.  The bodies are joined by newlines and encoded once.  With
    its digits deleted, that text must be n - 1 commas per row: this checks
    each row's length and keeps out what np.fromstring reads leniently
    ("-,1" as 0 and 1, "- 1" as -1).  With its newlines made commas, one
    fromstring call parses it; a cell past int64 saturates, which fails
    the caller's int32 bound.  An empty cell shows as a leading, doubled
    or trailing comma: NumPy 2 raises at the first two and NumPy 1 warns,
    and the last reads one value short; each gives None."""
    raw = "\n".join(bodies).encode("ascii", "replace")  # non-ASCII fails as "?"
    if raw.translate(None, b"0123456789") != b"\n".join([b"," * (n - 1)] * len(bodies)):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            cells = np.fromstring(raw.replace(b"\n", b","), dtype=np.int64, sep=",")
    except (ValueError, DeprecationWarning):
        return None
    return cells if cells.size == len(bodies) * n else None


def _int_row(body: str, n: int) -> Optional[np.ndarray]:
    """A row's n cells as int64, read as int reads each one, or None when
    a cell is not an integer or lies past int64: a row _int_cells reads,
    else int on each cell (_cells_row)."""
    row = _int_cells([body], n)
    return _cells_row(body.split(",")) if row is None else row


def _cells_row(cells: list) -> Optional[np.ndarray]:
    """Cells as int64 by int on each text (padding, signs, "_" and
    non-ASCII digits read as rat_parse reads them), or None."""
    try:
        return np.array(cells, dtype=np.int64)
    except (ValueError, OverflowError):
        return None


def space_from_csv(text: str, caps: Caps = DEFAULT_CAPS) -> Space:
    """Space from a distance-matrix CSV, optionally labeled (header "id" or
    empty first cell, then each row's first cell names its point).  Too
    many points or a repeated header id raises before any cell is read;
    a mislabeled or short row, or a bad cell, raises at its row, the
    first defect in row order first.

    Rows are read in blocks of about _BLOCK_CELLS cells: a block whose
    labels and row lengths pass, whose cells _int_cells reads by one
    np.fromstring call, and whose values lie within int32 is stored in
    one n x n int32 array.  A block that fails any of these is read
    again row by row, each row by _int_row (one fromstring call, or
    int on each cell, which reads a cell without "/" as rat_parse does),
    checked as it is read, and stored while it stays within int32; then
    blocks resume.  When the stored values span at most n^2 integers,
    _compact codes them from a presence mask over [min, max], and if
    every row was stored that is the space.  Otherwise the shared encoder
    reads on, from split cells, from the first row not stored (a
    fraction, a bad cell, a value outside int32), or from the first row
    when the span is wider, parsing each distinct text once with
    rat_parse, so every error keeps its text and its row."""
    # the non-blank lines of text.strip().splitlines(), with no copy of
    # the text: blank lines dropped, then the text's ends stripped
    lines = [ln for ln in text.splitlines() if ln and not ln.isspace()]
    if not lines:
        raise ValueError("empty distance matrix")
    lines[0] = lines[0].lstrip()
    lines[-1] = lines[-1].rstrip()
    header = [c.strip() for c in lines[0].split(",")]
    if header and header[0] in ("id", ""):
        header = header[1:]
        labeled = True
    else:
        labeled = False
    points = header
    n = len(points)
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} data rows, found {len(lines) - 1}")

    def bodies(start: int, stop: int):
        """Each row's text after its label, label and length checked."""
        for k in range(start, stop):
            ln = body = lines[k + 1]
            if labeled:
                label, _, body = ln.partition(",")
                label = label.strip()
                if label != points[k]:
                    raise ValueError(
                        f"row {k + 1} label {label!r} does not match header "
                        f"order ({points[k]!r})")
            # as many entries as ln.split(",") has cells, less the label
            entries = ln.count(",") + 1 - labeled
            if entries != n:
                raise ValueError(f"row {k + 1} has {entries} entries, want {n}")
            yield body

    def block(start: int, stop: int) -> Optional[np.ndarray]:
        """Rows start..stop-1 as int64, or None where bodies() would raise
        or _int_cells gives None."""
        rows = lines[start + 1:stop + 1]
        if labeled:
            cut = [ln.partition(",") for ln in rows]
            if any(label.strip() != p for (label, _, _), p in
                   zip(cut, points[start:stop])):
                return None
            rows = [body for _, _, body in cut]
        return _int_cells(rows, n)

    caps.check_points(n, "space")  # before any cell is parsed
    if len(set(points)) != n:
        raise ValueError("duplicate point ids")
    ints = np.empty((n, n), dtype=np.int32)
    lo, hi = _INT32.max, _INT32.min

    def store(cells: Optional[np.ndarray], start: int) -> bool:
        """Store cells as the rows from start on if they were read and lie
        within int32; say whether they were stored."""
        nonlocal lo, hi
        if cells is None:
            return False
        cmin, cmax = int(cells.min()), int(cells.max())
        if cmin < _INT32.min or cmax > _INT32.max:
            return False
        ints[start:start + cells.size // n] = cells.reshape(-1, n)
        lo, hi = min(lo, cmin), max(hi, cmax)
        return True

    step = max(1, _BLOCK_CELLS // max(n, 1))
    done, rest = 0, None
    while done < n and rest is None:
        stop = min(n, done + step)
        if store(block(done, stop), done):
            done = stop
            continue
        for body in bodies(done, stop):
            if not store(_int_row(body, n), done):
                rest = itertools.chain([body], bodies(done + 1, n))
                break
            done += 1
    if not done:
        lo, hi = 0, -1
    # the mask holds one flag per integer of [lo, hi]; shifted, they fit int32
    if hi - lo > min(n * n, _INT32.max):
        return _encode_cells(points, (b.split(",") for b in bodies(0, n)), rat_parse,
                             caps, ints)
    ints[:done] -= lo
    codes, values = _compact(ints[:done], range(lo, hi + 1))
    if done == n:
        return Space.__new__(Space)._fill(
            tuple(points), codes, values, None, caps)
    ints[:done] = codes
    return _encode_cells(points, (b.split(",") for b in rest), rat_parse,
                         caps, ints, done, values)


def tower_to_json(tower: Tower) -> dict:
    """Nodes in (level, id) order, their parents read off the arrays; a
    level that formats its ids on read (a PathRow) is read once."""
    ups = [map(list(up).__getitem__, par.tolist()) for up, par in zip(tower._ids[1:], tower._par)]
    nodes = [{"id": i, "level": lv, "parent": p}
             for lv, (row, ps) in enumerate(zip(tower._ids, ups + [[None]]), start=1)
             for i, p in zip(row, ps)]
    return {"height": tower.height, "nodes": nodes}


def _tower_fields(data: dict) -> tuple[list, dict, dict]:
    """The raw (ids, level, parent) of a tower JSON document, levels as
    written, so validate_tower judges them rather than a coercion."""
    if not isinstance(data, dict) or "nodes" not in data:
        raise ValueError("tower JSON needs 'nodes'")
    nodes = data["nodes"]
    if not isinstance(nodes, list):
        raise ValueError("'nodes' must be a list")
    ids, level, parent = [], {}, {}
    for entry in nodes:
        if not isinstance(entry, dict) or "id" not in entry or "level" not in entry:
            raise ValueError("each node needs 'id' and 'level'")
        i, p = entry["id"], entry.get("parent")
        if not isinstance(i, str):
            raise ValueError("node ids must be strings")
        if not isinstance(p, (str, type(None))):
            raise ValueError(f"node {i!r}: parent must be a string or null, got {p!r}")
        ids.append(i)
        level[i] = entry["level"]
        parent[i] = p
    return ids, level, parent


def _check_height(data: dict, height: int) -> None:
    """Refuse a tower document whose optional "height" is not the height
    of its valid nodes."""
    declared = data.get("height")
    # compared by type, as validate_tower compares levels: bool is an int
    if declared is not None and (type(declared) is not int or declared != height):
        raise ValueError(f"declared height {declared!r} != computed height {height}")


def tower_from_json(data: dict, caps: Caps = DEFAULT_CAPS) -> Tower:
    tower = Tower(*_tower_fields(data), caps=caps)
    _check_height(data, tower.height)
    return tower


def multimap_to_json(mm, source_ref: str, target_ref: str) -> dict:
    return {
        "source_ref": source_ref,
        "target_ref": target_ref,
        "pairs": [[a, b] for a, b in mm.pairs],
    }


def content_hash(obj) -> str:
    """Stable short hash of a JSON-encodable object."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


_HASH_CHUNK = 1 << 16  # nodes whose text is joined and hashed at once


def tower_hash(tower: Tower) -> str:
    """content_hash(tower_to_json(tower)), hashed a level at a time.

    That text is {"height":H,"nodes":[...]} with each node written as
    {"id":I,"level":L,"parent":P} in (level, id) order, the parent null
    at the top.  Each id is escaped once, as json.dumps escapes a string,
    and a level's text is joined from (escaped id, tail) pairs, one tail
    per parent, so no dict and no string is built per node.  Only two
    levels are held escaped at a time (a level's ids, then its parents'
    as the next level's), and a level's text is hashed in runs of
    _HASH_CHUNK nodes.  A uniform tower (Tower._blocks), whose levels are
    PathRows and whose ids extend their parents' ids, has each level's
    text written from its parents' ids (PathRow._node_text).  A tower
    whose ids are not all strings is hashed from its document."""
    digest = hashlib.sha256(b'{"height":%d,"nodes":[{"id":' % tower.height)
    try:
        if tower._blocks is not None:
            for lv, (row, up) in enumerate(zip(tower._ids, tower._ids[1:]), start=1):
                for text in row._node_text(up, lv, _HASH_CHUNK):
                    digest.update(text.encode("ascii"))
            row = list(map(encode_basestring_ascii, tower._ids[-1]))
        else:
            row = list(map(encode_basestring_ascii, tower._ids[0]))
            for lv, par in enumerate(tower._par, start=1):
                up = list(map(encode_basestring_ascii, tower._ids[lv]))
                # each node's text runs on to the opening of the next node's
                tails = [f',"level":{lv},"parent":{p}}},{{"id":' for p in up]
                for lo in range(0, len(row), _HASH_CHUNK):
                    nodes = zip(row[lo:lo + _HASH_CHUNK],
                                map(tails.__getitem__, par[lo:lo + _HASH_CHUNK].tolist()))
                    digest.update("".join(itertools.chain.from_iterable(nodes)).encode("ascii"))
                row = up
        tail = f',"level":{tower.height},"parent":null}}'
        digest.update(((tail + ',{"id":').join(row) + tail + "]}").encode("ascii"))
    except TypeError:
        return content_hash(tower_to_json(tower))
    return digest.hexdigest()[:16]


_CONTAINERS = (dict, list, tuple)


class _Unmatched(Exception):
    """A part of a document that _indented does not write as json.dumps."""


def dump_json(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) and a newline: the join
    of _json_pieces(obj)."""
    return "".join(_json_pieces(obj))


def _json_pieces(obj) -> list[str]:
    """dump_json's text as a list of pieces, so that a writer can write
    them one by one and never hold the joined text.

    With an indent json.dumps runs its pure-Python encoder, so the
    document is written by _indented, which leaves each container holding
    no container to the C encoder.  On anything it does not match byte
    for byte (a dict holding containers under a key that is not a
    string) and on any error, json.dumps writes the document, or raises,
    as it always did.  Every piece is made before the list is returned,
    so a document that cannot be written leaves nothing half written."""
    pieces: list[str] = []
    try:
        _indented(obj, "\n", pieces)
    except Exception:
        pieces = [json.dumps(obj, indent=2, sort_keys=True)]
    pieces.append("\n")
    return pieces


def _indented(obj, nl: str, out: list[str]) -> None:
    """Append obj's text in dump_json's layout to out, nl being the line
    break and indent of the line it starts on.

    A container holding no container is written by the C encoder with
    the item separator "," + its items' line break and indent; its text
    then lacks only the break after its opening bracket and the one
    before its closing bracket."""
    inner = nl + "  "
    if not isinstance(obj, _CONTAINERS) or not obj:
        out.append(_flat_encoder(inner).encode(obj))  # a scalar, [] or {}
        return
    values = obj.values() if isinstance(obj, dict) else obj
    if not any(issubclass(t, _CONTAINERS) for t in set(map(type, values))):
        text = _flat_encoder(inner).encode(obj)
        out += (text[0] + inner, text[1:-1], nl + text[-1])
        return
    if isinstance(obj, dict):
        items = sorted(obj.items())
        if not all(isinstance(k, str) for k, _ in items):
            raise _Unmatched("a non-string key in a dict holding containers")
        heads = [encode_basestring_ascii(k) + ": " for k, _ in items]
        values, brackets = [v for _, v in items], "{}"
    else:
        heads, brackets = [""] * len(obj), "[]"
    sep = brackets[0] + inner
    for head, v in zip(heads, values):
        out.append(sep + head)
        _indented(v, inner, out)
        sep = "," + inner
    out.append(nl + brackets[1])


@functools.lru_cache(maxsize=64)
def _flat_encoder(inner: str) -> json.JSONEncoder:
    """The C encoder, writing items separated by "," + inner."""
    return json.JSONEncoder(sort_keys=True, separators=("," + inner, ": "))


def dump_csv(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            rat_str(v) if isinstance(v, (int, Fraction)) else str(v)
            for v in row))
    return "\n".join(lines) + "\n"


def pipeline_report(
    result,
    source_label: str,
    source_hash: str,
    target_label: str,
    decisions: dict,
    config: Optional[dict] = None,
) -> dict:
    """Self-describing report: inputs, every policy the numbers depend on,
    the ordered stage list with certificates, and the composed audit."""
    body = result.to_json()
    return {
        "format": "coarse-equivalence-report/2",
        "inputs": {
            "source": {"label": source_label, "hash": source_hash},
            "target": {"label": target_label},
        },
        "decisions": dict(decisions),
        "config": dict(config or {}),
        "pipeline": body,
    }
