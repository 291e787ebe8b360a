"""Data curation, the binary sequence store, CSV ingestion, and batch packing.

Cleaning is two-staged: sequences are first split at NaN/Inf points, then a
fixed-length window scan drops stretches whose values, first differences
(x[t+1]-x[t]), or second differences (x[t+2]-x[t]) are zero too often —
the signature of constant-filled gaps. Surviving windows are concatenated
and short leftovers dropped. Both stages run as whole-array passes, with no
per-window Python loop: one kernel (_window_gate) takes the zero ratios of
a [k, w] stack of windows at once, check_window being its one-row case, and
one run-finder (_runs) cuts a per-point mask into its maximal runs, the
finite points for the first stage and the points of passing windows for
the second.

Cleaned sequences live in one flat file of little-endian float32 points,
<name>.bin, indexed by <name>.idx: a small header (magic, version 2, the
domain names, the sequence count), then each sequence's length and domain
id as fixed-width little-endian arrays. The sequences tile <name>.bin end to
end in index order, so the offsets are the running sum of the lengths and
4 x sum(lengths) is the file's size. A store holds finite values only.
open checks the index in whole-array passes, maps the data file read-only
once and indexes, per domain, the sequences a crop can start in; a read is
then a view of the map, with no open, seek or copy, and only the pages a
crop touches are ever loaded. write streams its sequences in one pass and
puts each file in place by a rename, so a store that is open keeps reading
the file it mapped. No data file may be truncated in place while a store
that maps it is open: reading a page past the new end kills the process
with SIGBUS.
"""

from __future__ import annotations

import array
import csv
import itertools
import json
import math
import numbers
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

STORE_DTYPE = "<f4"
INDEX_MAGIC = b"SPCSTIDX"
INDEX_VERSION = 2
# magic, version, byte length of the domain names, sequence count
INDEX_HEADER = struct.Struct("<8sIIQ")
# write_csv formats this many rows per string, about 33 KB for 7 repr
# columns; the whole body at once held about 7 MB of Python objects for a
# 14 307 x 7 file. load_csv counts line ends in pieces of READ_BLOCK_BYTES.
# Both stay under glibc's initial 128 KB mmap threshold whatever the file's
# size: a whole-file bytes object and 1024-row strings
# made the peak RSS of a process evaluating many files vary by up to 1.8 MB
# from run to run.
WRITE_BLOCK_ROWS = 256
READ_BLOCK_BYTES = 1 << 16


class FormatError(ValueError):
    """Malformed store index, data file, or CSV input."""


@dataclass
class RawSeries:
    """As-collected values, possibly with NaN/Inf, plus provenance tags."""

    values: np.ndarray
    domain: str = "default"
    source: str = ""


@dataclass
class SeriesOrigin:
    """Where a cleaned segment came from: source tag plus the index intervals
    of the raw series that survived, in order."""

    source: str = ""
    intervals: list = field(default_factory=list)


@dataclass
class CleanSeries:
    values: np.ndarray
    domain: str = "default"
    origin: SeriesOrigin = field(default_factory=SeriesOrigin)

    def __len__(self):
        return len(self.values)


@dataclass
class CleanConfig:
    window_size: int = 128
    zero_threshold: float = 0.2
    min_len: int = 256

    def __post_init__(self):
        if self.window_size < 1 or self.min_len < 1:
            raise ValueError(f"window_size and min_len must be >= 1, got {self.window_size} "
                             f"and {self.min_len}")
        if not 0 <= self.zero_threshold <= 1:  # also false for NaN
            raise ValueError(f"zero_threshold must lie in [0, 1], got {self.zero_threshold}")


# --- cleaning ----------------------------------------------------------------


def _window_gate(windows: np.ndarray, zero_threshold: float) -> tuple:
    """(ratios [k, 3], passed [k]) for a [k, w] float64 stack of windows.

    A row's ratios are the zero shares of its values, its first differences
    and its second differences; an empty difference array has a NaN ratio,
    which never trips the gate. A row passes when it is finite and no ratio
    exceeds zero_threshold.
    """
    w = windows.shape[1]
    with np.errstate(invalid="ignore"):
        zeros = np.stack([(windows == 0).sum(axis=1),
                          (windows[:, 1:] - windows[:, :-1] == 0).sum(axis=1),
                          (windows[:, 2:] - windows[:, :-2] == 0).sum(axis=1)], axis=1)
        ratios = np.divide(zeros, [w, w - 1, w - 2], out=np.full(zeros.shape, np.nan),
                           where=[True, w > 1, w > 2])
    passed = np.isfinite(windows).all(axis=1) & ~(ratios > zero_threshold).any(axis=1)
    return ratios, passed


def _runs(keep: np.ndarray, min_len: int) -> list:
    """(start, stop) Python ints of each maximal run of True in keep whose
    length is at least min_len."""
    edges = np.flatnonzero(np.diff(np.concatenate([[0], keep.view(np.int8), [0]])))
    return [(int(a), int(b)) for a, b in zip(edges[0::2], edges[1::2]) if b - a >= min_len]


def check_window(window, zero_threshold: float):
    """Quality gate for one window: (passed, diagnostics).

    Fails on any NaN/Inf, or when the zero ratio of the values, the first
    differences, or the second differences exceeds zero_threshold. Ratios of
    empty difference arrays are undefined (NaN) and never trip the gate.
    """
    seq = np.asarray(window, dtype=np.float64)
    if seq.ndim != 1:
        raise ValueError(f"check_window expects a 1-D window, got shape {seq.shape}")
    info: dict = {"nan_count": int(np.isnan(seq).sum())}
    if info["nan_count"] > 0:
        return False, info
    info["inf_count"] = int(np.isinf(seq).sum())
    if info["inf_count"] > 0:
        return False, info
    ratios, passed = _window_gate(seq[None], zero_threshold)
    info.update(zip(("zero_ratio", "first_diff_zero_ratio", "second_diff_zero_ratio"),
                    ratios[0].tolist()))
    return bool(passed[0]), info


def split_by_nan_inf(values, min_len: int = 1):
    """Maximal finite runs of length >= min_len, as (start_index, values) pairs."""
    if min_len < 1:
        raise ValueError("min_len must be >= 1")
    seq = np.asarray(values, dtype=np.float64)
    return [(start, seq[start:stop].copy()) for start, stop in _runs(np.isfinite(seq), min_len)]


def split_by_window_quality(values, window_size: int = 128, zero_threshold: float = 0.2,
                            min_len: int = 256):
    """Window-scan an already-finite sequence, keeping runs of passing windows.

    Non-overlapping windows tile the sequence; the final partial window is
    merged into the last full one. Every window is gated in one pass, and
    each run of consecutive passing windows is one interval, kept at length
    >= min_len. Inputs no longer than one window pass or fail whole. Returns
    ([interval], values) pairs.
    """
    if window_size < 1:
        raise ValueError("window_size must be >= 1")
    seq = np.asarray(values, dtype=np.float64)
    n = len(seq)
    if n <= window_size:
        ok, _ = check_window(seq, zero_threshold)
        return [([(0, n)], seq.copy())] if ok else []
    last = (n // window_size - 1) * window_size  # start of the merged last window
    passed = np.concatenate([_window_gate(seq[:last].reshape(-1, window_size), zero_threshold)[1],
                             _window_gate(seq[None, last:], zero_threshold)[1]])
    keep = np.repeat(passed, [window_size] * (len(passed) - 1) + [n - last])
    return [([run], seq[run[0]:run[1]].copy()) for run in _runs(keep, min_len)]


def clean_series(raw: RawSeries, config: CleanConfig | None = None):
    """Full curation of one raw series into zero or more clean segments."""
    config = config or CleanConfig()
    out = []
    for offset, finite_run in split_by_nan_inf(raw.values, config.min_len):
        for intervals, seg in split_by_window_quality(
                finite_run, config.window_size, config.zero_threshold, config.min_len):
            origin = SeriesOrigin(source=raw.source,
                                  intervals=[(offset + a, offset + b) for a, b in intervals])
            out.append(CleanSeries(values=seg, domain=raw.domain, origin=origin))
    return out


# --- binary store ----------------------------------------------------------------


def is_bare_file_name(name) -> bool:
    """Whether name is a str naming a file in the directory it is read from:
    not empty, not "..", and with no directory part. A manifest segment
    names its file so; anything else could reach outside."""
    return isinstance(name, str) and name not in ("", "..") and Path(name).name == name


class SequenceStore:
    """Cleaned sequences in one flat f32-LE file, <name>.bin, indexed by
    <name>.idx.

    The index is a header, INDEX_HEADER (magic, version, the byte length of
    the domain names, the sequence count) followed by the domain names as a
    JSON list of distinct str, then two little-endian arrays with one entry
    per sequence: its length in points (u8) and its domain id (u4), an
    index into the names. The sequences tile <name>.bin end to end in index
    order, so sequence i starts at the sum of the lengths before it and
    4 x sum(lengths) is the size of <name>.bin. open checks the index in
    whole-array passes, and the constructor checks that tiling. points maps
    the data file, bounds holds the n + 1 sequence boundaries, and croppable
    lists per domain, in index order, the sequences of two points or more,
    where a crop can start.
    """

    def __init__(self, index: Path, names: list, lengths: np.ndarray, domain_ids: np.ndarray):
        self.directory, self.name = index.parent, index.stem
        self.data_file, self.names, self.domain_ids = index.with_suffix(".bin"), names, domain_ids
        bounds = np.zeros(len(lengths) + 1, dtype=np.uint64)
        np.cumsum(lengths, out=bounds[1:])
        if not self.data_file.exists():
            raise FormatError(f"{index}: missing data file {self.data_file.name}")
        size = self.data_file.stat().st_size
        # The running sum of the lengths can only fall where it wrapped past 2**64.
        if 4 * int(bounds[-1]) != size or (bounds[1:] < bounds[:-1]).any():
            raise FormatError(f"{index}: the sequence lengths do not tile "
                              f"{self.data_file.name}: they sum to {int(bounds[-1])} points, "
                              f"the file holds {size / 4} points")
        self.bounds = bounds.view(np.int64)  # the same values: a tiling ends below 2**62
        points = int(bounds[-1])  # an empty file cannot be mapped
        self.points = (np.memmap(self.data_file, dtype=STORE_DTYPE, mode="r", shape=(points,))
                       if points else np.empty(0, dtype=STORE_DTYPE))
        keep = np.flatnonzero(np.diff(self.bounds) >= 2)
        keep = keep[np.argsort(domain_ids[keep], kind="stable")]
        parts = np.split(keep, np.cumsum(np.bincount(domain_ids[keep], minlength=len(names)))[:-1])
        self.croppable = {d: part for d, part in zip(names, parts) if len(part)}

    @classmethod
    def write(cls, series, directory, name: str = "store") -> "SequenceStore":
        """Stream series, any iterable of CleanSeries, into a new store in one
        pass: each sequence is checked, appended to <name>.bin.tmp and
        recorded as it arrives. Both files are renamed into place, <name>.bin
        first, only once every sequence passed; on any error both temp files
        go, and so does every directory write made, deepest first."""
        directory = Path(directory)
        made = [d for d in (directory, *directory.parents) if not d.exists()]
        directory.mkdir(parents=True, exist_ok=True)
        tmp = directory / f"{name}.bin.tmp", directory / f"{name}.idx.tmp"
        names: dict[str, int] = {}
        lengths, domain_ids = array.array("Q"), array.array("I")
        try:
            with open(tmp[0], "wb") as handle, np.errstate(over="ignore"):
                for i, s in enumerate(series):
                    if not isinstance(s.domain, str):
                        raise FormatError(f"sequence {i}: domain must be a str, got {s.domain!r}")
                    values = np.asarray(s.values, dtype=STORE_DTYPE)
                    if not np.isfinite(values).all():
                        raise FormatError(f"sequence {i} holds NaN or Inf as float32; "
                                          f"a store keeps finite values only")
                    handle.write(values.tobytes())
                    lengths.append(values.size)
                    domain_ids.append(names.setdefault(s.domain, len(names)))
            if not lengths:
                raise ValueError("refusing to write an empty store")
            lengths, domain_ids = np.asarray(lengths, "<u8"), np.asarray(domain_ids, "<u4")
            header = json.dumps(list(names)).encode()
            tmp[1].write_bytes(b"".join((INDEX_HEADER.pack(INDEX_MAGIC, INDEX_VERSION,
                                                           len(header), len(lengths)),
                                         header, lengths, domain_ids)))
        except BaseException:
            for path in tmp:
                path.unlink(missing_ok=True)
            for made_dir in made:
                made_dir.rmdir()
            raise
        for path in tmp:
            os.replace(path, path.with_suffix(""))
        return cls(directory / f"{name}.idx", list(names), lengths, domain_ids)

    @classmethod
    def open(cls, path) -> "SequenceStore":
        """The store of a <name>.idx, or of the one *.idx in a directory."""
        path = Path(path)
        if path.is_dir():
            found = sorted(path.glob("*.idx"))
            if len(found) != 1:
                old = (" It holds a version-1 store (*.meta.json): re-run `sparsecast pack` "
                       "to rebuild it." if not found and any(path.glob("*.meta.json")) else "")
                raise FormatError(f"expected exactly one *.idx in {path}, "
                                  f"found {len(found)}.{old}")
            path = found[0]
        raw = path.read_bytes()
        # A file shorter than the header is padded with zeros, which fail a check below.
        magic, version, names_size, count = INDEX_HEADER.unpack_from(
            raw.ljust(INDEX_HEADER.size, b"\0"))
        if (magic, version) != (INDEX_MAGIC, INDEX_VERSION):
            raise FormatError(f"{path} is not a store index of version {INDEX_VERSION}; "
                              f"re-run `sparsecast pack` to rebuild an older store")
        start = INDEX_HEADER.size + names_size
        if len(raw) != start + 12 * count:
            raise FormatError(f"{path} holds {len(raw)} bytes, but its header and "
                              f"{count} sequences take {start + 12 * count}")
        try:
            names = json.loads(raw[INDEX_HEADER.size:start].decode())
        except ValueError as e:
            raise FormatError(f"{path}: unreadable domain names ({e})") from None
        if not (isinstance(names, list) and all(isinstance(d, str) for d in names)
                and len(set(names)) == len(names)):
            raise FormatError(f"{path}: domain names must be a list of distinct str, "
                              f"got {names!r:.200}")
        lengths = np.frombuffer(raw, "<u8", count, start)
        domain_ids = np.frombuffer(raw, "<u4", count, start + 8 * count)
        if count and domain_ids.max() >= len(names):
            raise FormatError(f"{path}: domain id {domain_ids.max()} out of range for "
                              f"{len(names)} domain names")
        return cls(path, names, lengths, domain_ids)

    def __len__(self) -> int:
        return len(self.domain_ids)

    @property
    def total_points(self) -> int:
        return int(self.bounds[-1])

    def domains(self) -> list:
        return sorted(self.names)

    def read(self, index: int) -> CleanSeries:
        """Sequence index as a read-only view of the data file's map."""
        if not 0 <= index < len(self):
            raise IndexError(f"sequence index {index} out of range [0, {len(self)})")
        return CleanSeries(values=self.points[self.bounds[index]: self.bounds[index + 1]],
                           domain=self.names[self.domain_ids[index]],
                           origin=SeriesOrigin(source=str(self.data_file)))


# --- batch packing ----------------------------------------------------------------


@dataclass
class PackedBatch:
    """Training rows of packed crops: raw token values, per-token sequence
    ids (non-decreasing within a row), and a pad mask excluded from loss."""

    tokens: np.ndarray       # [B, L, 1] float32
    seq_ids: np.ndarray      # [B, L] int64
    pad_mask: np.ndarray     # [B, L] bool

    @property
    def rows(self) -> int:
        return self.tokens.shape[0]

    @property
    def length(self) -> int:
        return self.tokens.shape[1]


def normalize_weights(weights: dict, present: list) -> tuple:
    """Validate that weights give every present domain a finite, non-negative
    number, not a bool; return (names, probs)."""
    if not isinstance(weights, dict):
        raise ValueError(f"domain_weights must map domains to weights, got {weights!r}")
    missing = [d for d in present if d not in weights]
    if missing:
        raise ValueError(f"domain_weights missing entries for {missing}")
    for d in present:
        w = weights[d]
        if isinstance(w, bool) or not isinstance(w, numbers.Real) or not math.isfinite(w) or w < 0:
            raise ValueError(f"domain_weights[{d!r}] must be a finite non-negative number, "
                             f"got {w!r}")
    names = [d for d in present if weights[d] > 0]
    if not names:
        raise ValueError("all domain weights are zero")
    probs = np.array([weights[d] for d in names], dtype=np.float64)
    return names, probs / probs.sum()


def draw_domain(rng: np.random.Generator, names, probs) -> str:
    return names[rng.choice(len(names), p=probs)]


def sample_batch(store: SequenceStore, rng: np.random.Generator, batch_size: int,
                 context_len: int, domain_weights: dict | None = None) -> PackedBatch:
    """Pack random crops into batch rows, domains drawn by weight.

    Crops are drawn by domain (per weights), then uniformly among that
    domain's sequences, with a uniform start; each crop fills as much of the
    row as remains. Sequences shorter than two points are skipped. Leftover
    positions carry a fresh sequence id and the pad flag.
    """
    by_domain = store.croppable
    if not by_domain:
        raise ValueError("store has no sequences of length >= 2")
    present = sorted(by_domain)
    if domain_weights is None:
        domain_weights = {d: 1.0 for d in present}
    names, probs = normalize_weights(domain_weights, present)

    tokens = np.zeros((batch_size, context_len, 1), dtype=np.float32)
    seq_ids = np.zeros((batch_size, context_len), dtype=np.int64)
    pad_mask = np.zeros((batch_size, context_len), dtype=bool)
    for b in range(batch_size):
        pos = 0
        sid = 0
        while context_len - pos >= 2:
            domain = draw_domain(rng, names, probs)
            seq_index = by_domain[domain][rng.integers(len(by_domain[domain]))]
            values = store.read(seq_index).values
            start = int(rng.integers(0, len(values) - 1))  # start <= len - 2
            crop = values[start: start + (context_len - pos)]
            tokens[b, pos: pos + len(crop), 0] = crop
            seq_ids[b, pos: pos + len(crop)] = sid
            pos += len(crop)
            sid += 1
        if pos < context_len:
            seq_ids[b, pos:] = sid
            pad_mask[b, pos:] = True
    return PackedBatch(tokens=tokens, seq_ids=seq_ids, pad_mask=pad_mask)


# --- CSV ingestion ----------------------------------------------------------------


@dataclass
class CsvSchema:
    """Column selection and split policy for benchmark CSV files.

    splits may be three integers (must sum to the row count) or three
    fractions (test and validation floor-rounded, remainder to train).
    """

    columns: list | None = None
    splits: tuple = (0.6, 0.2, 0.2)


@dataclass
class LoadedCsv:
    values: np.ndarray   # [rows, channels] float64
    columns: list
    splits: tuple        # (n_train, n_val, n_test)
    path: str = ""


def _resolve_splits(splits, rows: int) -> tuple:
    if len(splits) != 3:
        raise FormatError(f"splits must have three entries, got {splits}")
    if any(s < 0 for s in splits):
        raise FormatError(f"split sizes must be >= 0, got {splits}")
    if all(isinstance(s, (int, np.integer)) for s in splits):
        if sum(splits) != rows:
            raise FormatError(f"explicit splits {splits} do not sum to {rows} rows")
        return tuple(int(s) for s in splits)
    total = float(sum(splits))
    if not 0.999 <= total <= 1.001:
        raise FormatError(f"fractional splits must sum to 1, got {splits}")
    n_val = int(rows * splits[1])
    n_test = int(rows * splits[2])
    return rows - n_val - n_test, n_val, n_test


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _loadtxt_float(cell: str) -> bool:
    """Whether np.loadtxt parses cell: float() without its underscores and
    non-ASCII digits."""
    cell = cell.strip()
    return cell.isascii() and "_" not in cell and _is_float(cell)


def _csv_rows(path: Path):
    """csv rows of the file, decoded as UTF-8 with an optional BOM."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as f:
            yield from csv.reader(f)
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8 text ({e})") from None
    except csv.Error as e:
        raise FormatError(f"{path}: {e}") from None


def _line_count(path: Path) -> int:
    """Lines in the file, counting an unterminated last line. A file with no
    \\n ends its lines with a lone \\r; one that mixes both is miscounted,
    so it is rejected, not misread. The file is read in READ_BLOCK_BYTES
    pieces, so no allocation grows with it."""
    newlines = returns = 0
    last = b""
    with open(path, "rb") as f:
        while block := f.read(READ_BLOCK_BYTES):
            newlines += block.count(b"\n")
            returns += block.count(b"\r")
            last = block[-1:]
    return (newlines or returns) + (last not in (b"\n", b"\r"))


def _drop(cell: str) -> float:
    return 0.0


def load_csv(path, schema: CsvSchema | None = None) -> LoadedCsv:
    """Read a header-first numeric CSV into [rows, channels], plus split sizes.

    A non-numeric first column (timestamps) is dropped; a file with no other
    column is an error. Any other non-numeric cell is a hard error naming the
    1-based file row and the column. The file is UTF-8, with an optional BOM.

    The header and the first data row go through csv, to find the timestamp
    column. The body is parsed in C by one np.loadtxt call over every column;
    the timestamp column and columns left out by schema.columns go through a
    constant converter, so any text is legal there. np.loadtxt skips blank
    lines, which are errors here, so its row count is checked against the
    file's line count, which also rejects a quoted cell holding a line break.
    When the C parse fails, a csv scan re-reads the rows only to raise
    FormatError at the first short or long row, or at the first kept cell
    np.loadtxt cannot parse. Its syntax is float()'s without digit underscores
    or non-ASCII digits, so "1_000", which float() accepts, is an error.
    Nothing else escapes: no ValueError, and no numpy warning.
    """
    schema = schema or CsvSchema()
    path = Path(path)
    if not path.exists():
        raise FormatError(f"no such file: {path}")
    rows = _csv_rows(path)
    header = next(rows, None)
    if header is None:
        raise FormatError(f"{path}: empty file")
    first = next(rows, None)
    if first is None:
        raise FormatError(f"{path}: no data rows")
    rows.close()

    start_col = 0
    if header and first and not _is_float(first[0]):
        start_col = 1
    columns = [h.strip() for h in header[start_col:]]
    if schema.columns is not None:
        missing = [c for c in schema.columns if c not in columns]
        if missing:
            raise FormatError(f"{path}: columns {missing} not present (have {columns})")
        keep = [start_col + columns.index(c) for c in schema.columns]
        columns = list(schema.columns)
    else:
        keep = list(range(start_col, len(header)))
    if not keep:
        _raise_first_bad_row(path, header, keep, columns)
        raise FormatError(f"{path}: no numeric columns")

    reason = "the first data row is blank"
    if first:  # np.loadtxt would skip a blank first row, and warn on a file of them
        dropped = set(range(len(header))) - set(keep)
        try:
            values = np.loadtxt(path, delimiter=",", comments=None, quotechar='"',
                                dtype=np.float64, ndmin=2, skiprows=1, encoding="utf-8-sig",
                                converters={j: _drop for j in dropped})
        except ValueError as e:
            reason = str(e)
        else:
            n_rows = _line_count(path) - 1
            if values.shape == (n_rows, len(header)):
                if keep != list(range(len(header))):
                    values = values.take(keep, axis=1)  # C order, like a fresh array
                return LoadedCsv(values=values, columns=columns,
                                 splits=_resolve_splits(schema.splits, n_rows), path=str(path))
            reason = (f"np.loadtxt read {values.shape[0]} rows of {values.shape[1]} cells; "
                      f"the file has {n_rows} lines after a header of {len(header)} cells")
    _raise_first_bad_row(path, header, keep, columns)
    raise FormatError(f"{path}: cannot parse ({reason})")


def _raise_first_bad_row(path: Path, header: list, keep: list, columns: list):
    """Raise FormatError at the first row with the wrong cell count or a kept
    cell np.loadtxt cannot parse; return if there is none."""
    for i, row in enumerate(itertools.islice(_csv_rows(path), 1, None), 2):
        if len(row) != len(header):
            raise FormatError(f"{path}: row {i} has {len(row)} cells, header has {len(header)}")
        for col, name in zip(keep, columns):
            if not _loadtxt_float(row[col]):
                raise FormatError(
                    f"{path}: non-numeric cell {row[col]!r} at row {i}, column {name!r}")


def write_csv(path, values: np.ndarray, columns: list | None = None) -> None:
    """Inverse of load_csv for forecast output: header plus float rows.

    Cells are repr() of float64 values, so load_csv reads them back bit for
    bit. The header goes through csv.writer; the body is written as one
    joined string per WRITE_BLOCK_ROWS rows, with csv.writer's \\r\\n line
    ends, and the same bytes it would write.
    """
    values = np.asarray(values)
    if values.ndim == 1:
        values = values[:, None]
    columns = columns or [f"c{j}" for j in range(values.shape[1])]
    with open(path, "w", newline="") as f:
        csv.writer(f).writerow(columns)
        for start in range(0, len(values), WRITE_BLOCK_ROWS):
            block = values[start:start + WRITE_BLOCK_ROWS].astype(np.float64).tolist()
            f.write("".join(",".join(map(repr, row)) + "\r\n" for row in block))
