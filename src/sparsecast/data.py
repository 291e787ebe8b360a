"""Data curation, the binary sequence store, CSV ingestion, and batch packing.

Cleaning is two-staged: sequences are first split at NaN/Inf points, then a
fixed-length window scan drops stretches whose values, first differences
(x[t+1]-x[t]), or second differences (x[t+2]-x[t]) are zero too often —
the signature of constant-filled gaps. Surviving windows are concatenated
and short leftovers dropped.

Cleaned sequences live in flat binary files of little-endian float32 points,
indexed by a JSON metafile of {file, offset_points, length_points, domain}.
Reads are seek-based; nothing ever scans a whole file.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

META_VERSION = 1
STORE_DTYPE = "<f4"
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
    """Malformed store metafile, data file, or CSV input."""


@dataclass
class RawSeries:
    """As-collected values, possibly with NaN/Inf, plus provenance tags."""

    values: np.ndarray
    domain: str = "default"
    frequency: str = ""
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


# --- cleaning ----------------------------------------------------------------


def check_window(window, zero_threshold: float):
    """Quality gate for one window: (passed, diagnostics).

    Fails on any NaN/Inf, or when the zero ratio of the values, the first
    differences, or the second differences exceeds zero_threshold. Ratios of
    empty difference arrays are undefined (NaN) and never trip the gate.
    """
    seq = np.asarray(window, dtype=np.float64)
    if seq.ndim != 1:
        raise ValueError(f"check_window expects a 1-D window, got shape {seq.shape}")
    info: dict = {}
    info["nan_count"] = int(np.isnan(seq).sum())
    if info["nan_count"] > 0:
        return False, info
    info["inf_count"] = int(np.isinf(seq).sum())
    if info["inf_count"] > 0:
        return False, info
    flag = True
    info["zero_ratio"] = float(np.sum(seq == 0) / len(seq))
    if info["zero_ratio"] > zero_threshold:
        flag = False
    first = seq[1:] - seq[:-1]
    info["first_diff_zero_ratio"] = float(np.sum(first == 0) / len(first)) if len(first) else float("nan")
    if len(first) and info["first_diff_zero_ratio"] > zero_threshold:
        flag = False
    second = seq[2:] - seq[:-2]
    info["second_diff_zero_ratio"] = float(np.sum(second == 0) / len(second)) if len(second) else float("nan")
    if len(second) and info["second_diff_zero_ratio"] > zero_threshold:
        flag = False
    return flag, info


def split_by_nan_inf(values, min_len: int = 1):
    """Maximal finite runs of length >= min_len, as (start_index, values) pairs."""
    if min_len < 1:
        raise ValueError("min_len must be >= 1")
    seq = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(seq)
    out = []
    edges = np.flatnonzero(np.diff(np.concatenate([[0], finite.view(np.int8), [0]])))
    for start, stop in zip(edges[0::2], edges[1::2]):
        if stop - start >= min_len:
            out.append((int(start), seq[start:stop].copy()))
    return out


def split_by_window_quality(values, window_size: int = 128, zero_threshold: float = 0.2,
                            min_len: int = 256):
    """Window-scan an already-finite sequence, keeping runs of passing windows.

    Scans non-overlapping windows; the final partial window is merged into the
    last full one. Consecutive passing windows concatenate; a failing window
    flushes the run, which is kept only at length >= min_len. Inputs no longer
    than one window pass or fail whole. Returns (interval list, values) pairs.
    """
    seq = np.asarray(values, dtype=np.float64)
    n = len(seq)
    if n <= window_size:
        ok, _ = check_window(seq, zero_threshold)
        return [([(0, n)], seq.copy())] if ok else []

    out = []
    run: list = []

    def flush():
        if run and sum(b - a for a, b in run) >= min_len:
            merged = [list(run[0])]
            for a, b in run[1:]:
                if a == merged[-1][1]:
                    merged[-1][1] = b
                else:
                    merged.append([a, b])
            intervals = [(a, b) for a, b in merged]
            out.append((intervals, np.concatenate([seq[a:b] for a, b in intervals])))

    i = window_size
    while True:
        if i + window_size > n:
            start, stop = i - window_size, n
            i = n
        else:
            start, stop = i - window_size, i
        ok, _ = check_window(seq[start:stop], zero_threshold)
        if ok:
            run.append((start, stop))
        else:
            flush()
            run = []
        if i >= n:
            break
        i += window_size
    flush()
    return out


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


@dataclass
class StoreEntry:
    file: str
    offset_points: int
    length_points: int
    domain: str


class SequenceStore:
    """Cleaned sequences in flat f32-LE binary files plus a JSON metafile."""

    def __init__(self, directory: Path, entries: list, name: str = "store"):
        self.directory = Path(directory)
        self.entries = entries
        self.name = name

    @classmethod
    def write(cls, series: list, directory, name: str = "store",
              max_points_per_file: int | None = None) -> "SequenceStore":
        if not series:
            raise ValueError("refusing to write an empty store")
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        entries: list[StoreEntry] = []
        shard, offset, handle = 0, 0, None
        multi = max_points_per_file is not None

        def shard_name(k):
            return f"{name}.{k:03d}.bin" if multi else f"{name}.bin"

        try:
            handle = open(directory / shard_name(shard), "wb")
            for s in series:
                values = np.ascontiguousarray(np.asarray(s.values), dtype=STORE_DTYPE)
                if multi and offset > 0 and offset + len(values) > max_points_per_file:
                    handle.close()
                    shard += 1
                    offset = 0
                    handle = open(directory / shard_name(shard), "wb")
                handle.write(values.tobytes())
                entries.append(StoreEntry(file=shard_name(shard), offset_points=offset,
                                          length_points=len(values), domain=s.domain))
                offset += len(values)
        finally:
            if handle is not None:
                handle.close()
        meta = {
            "version": META_VERSION,
            "sequences": [vars(e) for e in entries],
        }
        (directory / f"{name}.meta.json").write_text(json.dumps(meta, indent=1))
        return cls(directory, entries, name)

    @classmethod
    def open(cls, path) -> "SequenceStore":
        path = Path(path)
        if path.is_dir():
            metas = sorted(path.glob("*.meta.json"))
            if len(metas) != 1:
                raise FormatError(f"expected exactly one metafile in {path}, found {len(metas)}")
            path = metas[0]
        try:
            meta = json.loads(path.read_text())
        except json.JSONDecodeError as e:
            raise FormatError(f"unreadable metafile {path}: {e}") from e
        if meta.get("version") != META_VERSION:
            raise FormatError(f"unsupported store version {meta.get('version')!r}")
        directory = path.parent
        name = path.name[: -len(".meta.json")]
        entries = []
        spans: dict[str, list] = {}
        for idx, doc in enumerate(meta.get("sequences", [])):
            try:
                entry = StoreEntry(**doc)
            except TypeError as e:
                raise FormatError(f"metafile entry {idx} malformed: {e}") from e
            data_file = directory / entry.file
            if not data_file.exists():
                raise FormatError(f"metafile entry {idx}: missing data file {entry.file}")
            file_points = data_file.stat().st_size // 4
            if entry.offset_points < 0 or entry.length_points < 0 or \
                    entry.offset_points + entry.length_points > file_points:
                raise FormatError(
                    f"metafile entry {idx}: span [{entry.offset_points}, "
                    f"{entry.offset_points + entry.length_points}) outside {entry.file} "
                    f"({file_points} points)")
            spans.setdefault(entry.file, []).append((entry.offset_points,
                                                     entry.offset_points + entry.length_points, idx))
            entries.append(entry)
        for file, file_spans in spans.items():
            file_spans.sort()
            for (_, stop_a, idx_a), (start_b, _, idx_b) in zip(file_spans, file_spans[1:]):
                if start_b < stop_a:
                    raise FormatError(f"metafile entries {idx_a} and {idx_b} overlap in {file}")
        return cls(directory, entries, name)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def total_points(self) -> int:
        return sum(e.length_points for e in self.entries)

    def domains(self) -> list:
        return sorted({e.domain for e in self.entries})

    def indices_by_domain(self) -> dict:
        out: dict[str, list] = {}
        for i, e in enumerate(self.entries):
            out.setdefault(e.domain, []).append(i)
        return out

    def read(self, index: int) -> CleanSeries:
        if not 0 <= index < len(self.entries):
            raise IndexError(f"sequence index {index} out of range [0, {len(self.entries)})")
        entry = self.entries[index]
        with open(self.directory / entry.file, "rb") as f:
            f.seek(entry.offset_points * 4)
            buf = f.read(entry.length_points * 4)
        if len(buf) != entry.length_points * 4:
            raise FormatError(f"short read for entry {index} in {entry.file}")
        values = np.frombuffer(buf, dtype=STORE_DTYPE).copy()
        return CleanSeries(values=values, domain=entry.domain,
                           origin=SeriesOrigin(source=str(self.directory / entry.file)))


# --- batch packing ----------------------------------------------------------------


@dataclass
class PackedBatch:
    """Training rows of packed crops: raw token values, per-token sequence
    ids (non-decreasing within a row), and a pad mask excluded from loss."""

    tokens: np.ndarray       # [B, L, 1] float32
    seq_ids: np.ndarray      # [B, L] int64
    pad_mask: np.ndarray     # [B, L] bool
    crop_domains: list       # per row, domain of each packed crop

    @property
    def rows(self) -> int:
        return self.tokens.shape[0]

    @property
    def length(self) -> int:
        return self.tokens.shape[1]


def normalize_weights(weights: dict, present: list) -> tuple:
    """Validate that weights cover every present domain; return (names, probs)."""
    missing = [d for d in present if d not in weights]
    if missing:
        raise ValueError(f"domain_weights missing entries for {missing}")
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
    by_domain = {d: [i for i in idxs if store.entries[i].length_points >= 2]
                 for d, idxs in store.indices_by_domain().items()}
    by_domain = {d: idxs for d, idxs in by_domain.items() if idxs}
    if not by_domain:
        raise ValueError("store has no sequences of length >= 2")
    present = sorted(by_domain)
    if domain_weights is None:
        domain_weights = {d: 1.0 for d in present}
    names, probs = normalize_weights(domain_weights, present)

    tokens = np.zeros((batch_size, context_len, 1), dtype=np.float32)
    seq_ids = np.zeros((batch_size, context_len), dtype=np.int64)
    pad_mask = np.zeros((batch_size, context_len), dtype=bool)
    crop_domains: list = []
    for b in range(batch_size):
        pos = 0
        sid = 0
        row_domains = []
        while context_len - pos >= 2:
            domain = draw_domain(rng, names, probs)
            seq_index = by_domain[domain][rng.integers(len(by_domain[domain]))]
            values = store.read(seq_index).values
            start = int(rng.integers(0, len(values) - 1))  # start <= len - 2
            crop = values[start: start + (context_len - pos)]
            tokens[b, pos: pos + len(crop), 0] = crop
            seq_ids[b, pos: pos + len(crop)] = sid
            row_domains.append(domain)
            pos += len(crop)
            sid += 1
        if pos < context_len:
            seq_ids[b, pos:] = sid
            pad_mask[b, pos:] = True
        crop_domains.append(row_domains)
    return PackedBatch(tokens=tokens, seq_ids=seq_ids, pad_mask=pad_mask,
                       crop_domains=crop_domains)


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
