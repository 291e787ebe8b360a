"""Cleaning pipeline, binary store, packing, and CSV ingestion."""

import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from helpers import (corruption_cases, reference_index, reference_load_csv,
                     reference_sample_batch, reference_write_csv)

import sparsecast
from sparsecast.data import (
    CleanConfig,
    CleanSeries,
    CsvSchema,
    INDEX_HEADER,
    FormatError,
    RawSeries,
    SequenceStore,
    check_window,
    clean_series,
    draw_domain,
    load_csv,
    normalize_weights,
    sample_batch,
    split_by_nan_inf,
    split_by_window_quality,
    write_csv,
)

# --- independent loop-form reference implementation of the cleaning pass ---------
# Deliberately written element-by-element and window by window, mirroring how
# one would clean by hand. The package gates every window and finds both
# splits' runs in whole-array passes; it must agree segment-for-segment.


def ref_split_nan_inf(seq, minimum_seq_length=1):
    output, sublist = [], []
    for num in seq:
        if num is None or np.isnan(num) or np.isinf(num):
            if len(sublist) >= minimum_seq_length:
                output.append(sublist)
            sublist = []
        else:
            sublist.append(num)
    if len(sublist) >= minimum_seq_length:
        output.append(sublist)
    return output


def ref_check(seq, zero_threshold):
    seq = np.asarray(seq)
    if len(seq.shape) > 1:
        raise RuntimeError("rank > 1")
    flag = True
    if np.sum(np.isnan(seq)) > 0 or np.sum(np.isinf(seq)) > 0:
        return False
    if np.sum(seq == 0) / len(seq) > zero_threshold:
        flag = False
    with np.errstate(invalid="ignore", divide="ignore"):
        first = seq[1:] - seq[:-1]
        if len(first) and np.sum(first == 0) / len(first) > zero_threshold:
            flag = False
        second = seq[2:] - seq[:-2]
        if len(second) and np.sum(second == 0) / len(second) > zero_threshold:
            flag = False
    return flag


def ref_split_window_quality(seq, window_size, zero_threshold, minimum_seq_length):
    if len(seq) <= window_size:
        return [list(seq)] if ref_check(seq, zero_threshold) else []
    i = window_size
    sub_seq, out_list = [], []
    while True:
        if i + window_size > len(seq):
            window_seq = seq[i - window_size:len(seq)]
            i = len(seq)
        else:
            window_seq = seq[i - window_size:i]
        if ref_check(window_seq, zero_threshold):
            sub_seq.extend(window_seq)
        else:
            if len(sub_seq) >= minimum_seq_length:
                out_list.append(sub_seq)
            sub_seq = []
        if i >= len(seq):
            break
        i += window_size
    if len(sub_seq) >= minimum_seq_length:
        out_list.append(sub_seq)
    return out_list


def ref_pipeline(seq, window_size, zero_threshold, min_len):
    out = []
    for run in ref_split_nan_inf(seq, min_len):
        out.extend(ref_split_window_quality(run, window_size, zero_threshold, min_len))
    return out


def corrupt_series(rng, n):
    """Random series with injected NaN/Inf points and constant/zero stretches."""
    x = np.cumsum(rng.normal(size=n)) + rng.uniform(1, 3)
    for _ in range(rng.integers(0, 4)):
        at = rng.integers(0, n)
        x[at] = rng.choice([np.nan, np.inf, -np.inf])
    for _ in range(rng.integers(0, 3)):
        start = rng.integers(0, n)
        length = int(rng.integers(5, max(6, n // 2)))
        x[start:start + length] = rng.choice([0.0, float(rng.normal())])
    return x


# --- window checks ---------------------------------------------------------------


def test_constant_window_fails():
    ok, info = check_window(np.full(64, 5.0), 0.2)
    assert not ok
    assert info["first_diff_zero_ratio"] == 1.0


def test_clean_ramp_passes():
    # Constant slope means equal first differences, but they are nonzero, so
    # every ratio is exactly zero and the window passes.
    ok, info = check_window(np.arange(1, 129, dtype=float), 0.2)
    assert ok
    assert info["zero_ratio"] == 0.0
    assert info["first_diff_zero_ratio"] == 0.0
    assert info["second_diff_zero_ratio"] == 0.0


def test_quarter_zeros_fails_at_threshold():
    window = np.concatenate([np.zeros(32), np.linspace(1, 5, 96)])
    ok, info = check_window(window, 0.2)
    assert not ok
    assert info["zero_ratio"] == pytest.approx(0.25)


def test_check_window_rejects_matrix():
    with pytest.raises(ValueError):
        check_window(np.zeros((4, 4)), 0.2)


def test_check_window_nan_fails_early():
    ok, info = check_window(np.array([1.0, np.nan, 2.0]), 0.2)
    assert not ok and info["nan_count"] == 1


# --- nan/inf splitting -------------------------------------------------------------


def test_split_nan_basic():
    segs = split_by_nan_inf(np.array([1.0, 2.0, np.nan, 3.0, 4.0]), min_len=1)
    assert [(s, list(v)) for s, v in segs] == [(0, [1.0, 2.0]), (3, [3.0, 4.0])]


def test_split_all_finite_is_identity():
    x = np.arange(10, dtype=float)
    segs = split_by_nan_inf(x, min_len=1)
    assert len(segs) == 1
    np.testing.assert_array_equal(segs[0][1], x)


def test_split_nothing_survives():
    assert split_by_nan_inf(np.array([np.nan, np.inf, np.nan]), min_len=1) == []


def test_split_min_len_filters():
    segs = split_by_nan_inf(np.array([1.0, np.nan, 2.0, 3.0]), min_len=2)
    assert len(segs) == 1 and segs[0][0] == 2


# --- window-quality splitting ---------------------------------------------------------


def noisy_ramp(rng, n):
    return np.linspace(0, 10, n) + rng.normal(scale=0.1, size=n) + 5.0


def test_clean_input_survives_whole():
    rng = np.random.default_rng(0)
    x = noisy_ramp(rng, 512)
    segs = split_by_window_quality(x, 128, 0.2, 256)
    assert len(segs) == 1
    np.testing.assert_array_equal(segs[0][1], x)
    assert segs[0][0] == [(0, 512)]


def test_constant_middle_drops_short_prefix():
    rng = np.random.default_rng(1)
    x = np.concatenate([noisy_ramp(rng, 128), np.full(128, 2.0), noisy_ramp(rng, 256)])
    segs = split_by_window_quality(x, 128, 0.2, 256)
    assert len(segs) == 1
    assert len(segs[0][1]) == 256
    np.testing.assert_array_equal(segs[0][1], x[256:])
    assert segs[0][0] == [(256, 512)]


def test_short_failing_input_gives_nothing():
    assert split_by_window_quality(np.zeros(100), 128, 0.2, 256) == []


@pytest.mark.parametrize("bad", [dict(window_size=0), dict(window_size=-5), dict(min_len=0),
                                 dict(zero_threshold=-0.1), dict(zero_threshold=1.5),
                                 dict(zero_threshold=float("nan")),
                                 dict(zero_threshold=float("inf"))])
def test_clean_config_rejects_bad_values(bad):
    # A window of 0 or below never advanced the window scan: clean hung.
    with pytest.raises(ValueError):
        CleanConfig(**bad)


def test_window_scan_rejects_a_window_below_one():
    with pytest.raises(ValueError, match="window_size"):
        split_by_window_quality(np.arange(10.0), 0)


def test_short_passing_input_returned_whole():
    rng = np.random.default_rng(2)
    x = noisy_ramp(rng, 100)
    segs = split_by_window_quality(x, 128, 0.2, 256)
    assert len(segs) == 1 and len(segs[0][1]) == 100


def test_pipeline_matches_reference_on_randomized_corpus():
    rng = np.random.default_rng(3)
    cfg = CleanConfig(window_size=32, zero_threshold=0.2, min_len=48)
    for trial in range(300):
        n = int(rng.integers(5, 400))
        x = corrupt_series(rng, n)
        expect = ref_pipeline(x, cfg.window_size, cfg.zero_threshold, cfg.min_len)
        got = clean_series(RawSeries(values=x, source=f"trial{trial}"), cfg)
        assert len(got) == len(expect), f"trial {trial}: {len(got)} vs {len(expect)} segments"
        for seg, ref_seg in zip(got, expect):
            np.testing.assert_array_equal(seg.values, np.asarray(ref_seg))


def test_pipeline_idempotent():
    rng = np.random.default_rng(4)
    cfg = CleanConfig(window_size=32, zero_threshold=0.2, min_len=48)
    for trial in range(50):
        x = corrupt_series(rng, int(rng.integers(60, 400)))
        for seg in clean_series(RawSeries(values=x), cfg):
            again = clean_series(RawSeries(values=seg.values), cfg)
            assert len(again) == 1
            np.testing.assert_array_equal(again[0].values, seg.values)


def test_clean_series_invariants_and_origin():
    rng = np.random.default_rng(5)
    cfg = CleanConfig(window_size=32, zero_threshold=0.2, min_len=48)
    for trial in range(100):
        x = corrupt_series(rng, int(rng.integers(48, 500)))
        for seg in clean_series(RawSeries(values=x, domain="d", source="s"), cfg):
            assert np.all(np.isfinite(seg.values))
            assert len(seg) >= cfg.min_len
            rebuilt = np.concatenate([x[a:b] for a, b in seg.origin.intervals])
            np.testing.assert_array_equal(rebuilt, seg.values)
            # every emitted window re-passes the quality gate
            for start in range(0, len(seg) - cfg.window_size + 1, cfg.window_size):
                stop = min(start + 2 * cfg.window_size, len(seg))
                if stop - start < 2 * cfg.window_size:
                    ok, _ = check_window(seg.values[start:stop], cfg.zero_threshold)
                    assert ok
                    break
                ok, _ = check_window(seg.values[start:start + cfg.window_size],
                                     cfg.zero_threshold)
                assert ok


# --- store -----------------------------------------------------------------------


def make_series(rng, n, domain="default"):
    return CleanSeries(values=rng.normal(size=n).astype(np.float32), domain=domain)


def test_store_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(6)
    series = [make_series(rng, int(rng.integers(10, 100)), d)
              for d in ("a", "a", "b", "c")]
    store = SequenceStore.write(series, tmp_path)
    reopened = SequenceStore.open(tmp_path)
    assert len(reopened) == 4
    for i, s in enumerate(series):
        got = reopened.read(i)
        assert got.values.tobytes() == s.values.astype("<f4").tobytes()
        assert got.domain == s.domain


def test_store_total_points_bookkeeping(tmp_path):
    rng = np.random.default_rng(7)
    series = [make_series(rng, n) for n in (10, 20, 30)]
    store = SequenceStore.write(series, tmp_path)
    assert store.total_points == 60
    assert [(offset, n) for offset, n, _ in reference_index(store)] == [(0, 10), (10, 20),
                                                                        (30, 30)]
    assert (tmp_path / "store.bin").stat().st_size == 4 * 60


def test_store_read_out_of_range(tmp_path):
    rng = np.random.default_rng(8)
    store = SequenceStore.write([make_series(rng, 10)], tmp_path)
    with pytest.raises(IndexError):
        store.read(1)


def edit_index(path, offset, fmt, value):
    """Overwrite one field of an index file in place."""
    raw = bytearray(path.read_bytes())
    struct.pack_into(fmt, raw, offset, value)
    path.write_bytes(bytes(raw))


def records_start(path):
    """Byte offset of the length array: the header plus the domain names."""
    return INDEX_HEADER.size + INDEX_HEADER.unpack_from(path.read_bytes())[2]


def test_store_detects_corrupt_offsets(tmp_path):
    rng = np.random.default_rng(10)
    SequenceStore.write([make_series(rng, 10)], tmp_path)
    index = tmp_path / "store.idx"
    edit_index(index, records_start(index), "<Q", 99)
    with pytest.raises(FormatError, match="sum to 99 points, the file holds 10.0 points"):
        SequenceStore.open(tmp_path)


def test_store_detects_overlap(tmp_path):
    # Lengths whose running sum wraps past 2**64 back to the file's size would
    # make the sequences overlap: the first spans the whole file, the second
    # starts near 2**64.
    rng = np.random.default_rng(11)
    SequenceStore.write([make_series(rng, 10), make_series(rng, 10)], tmp_path)
    index = tmp_path / "store.idx"
    edit_index(index, records_start(index), "<Q", 2**64 - 5)
    edit_index(index, records_start(index) + 8, "<Q", 25)
    with pytest.raises(FormatError, match="do not tile store.bin"):
        SequenceStore.open(tmp_path)


def test_store_open_takes_the_index_or_its_directory(tmp_path):
    rng = np.random.default_rng(20)
    SequenceStore.write([make_series(rng, 10)], tmp_path / "one", name="x.y")
    assert sorted(p.name for p in (tmp_path / "one").iterdir()) == ["x.y.bin", "x.y.idx"]
    for path in (tmp_path / "one", tmp_path / "one" / "x.y.idx"):
        store = SequenceStore.open(path)
        assert (store.name, len(store), store.data_file.name) == ("x.y", 1, "x.y.bin")
    SequenceStore.write([make_series(rng, 10)], tmp_path / "one", name="z")
    with pytest.raises(FormatError, match="exactly one"):
        SequenceStore.open(tmp_path / "one")


def test_store_corruption_sweep_ends_in_a_clean_open_or_a_format_error(tmp_path):
    rng = np.random.default_rng(22)
    SequenceStore.write([make_series(rng, 3, "a"), make_series(rng, 0, "b"),
                         make_series(rng, 5, "a")], tmp_path)
    index, data_file = tmp_path / "store.idx", tmp_path / "store.bin"
    good_index, good_data = index.read_bytes(), data_file.read_bytes()
    opened = 0
    for label, raw in corruption_cases(index):
        index.write_bytes(raw)
        try:
            store = SequenceStore.open(tmp_path)
        except FormatError:
            continue
        opened += 1  # a clean open must read and sample without an error
        assert store.total_points == 8, label
        for i in range(len(store)):
            store.read(i)
        sample_batch(store, np.random.default_rng(0), 2, 8)
    assert opened < 10  # nearly every fault is caught, not read past
    index.write_bytes(good_index)
    # A data file cut by 1-4 bytes, or with a partial point appended, which
    # a store that counted whole points in the file read without a word.
    for raw in [good_data[:-cut] for cut in range(1, 5)] + [good_data + b"\0" * 2]:
        data_file.write_bytes(raw)
        with pytest.raises(FormatError, match="do not tile"):
            SequenceStore.open(tmp_path)
    data_file.unlink()
    with pytest.raises(FormatError, match="missing data file store.bin"):
        SequenceStore.open(tmp_path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39])
def test_store_write_rejects_non_finite_values(tmp_path, bad):
    # 1e39 is finite in float64 but overflows to inf as a stored float32.
    # The bad sequence sits mid-stream: nothing written before it is left,
    # not even a temp file, nor the directory where write made it.
    rng = np.random.default_rng(12)
    for directory in (tmp_path, tmp_path / "store"):
        series = (s for s in [make_series(rng, 10), CleanSeries(values=np.array([1.0, bad])),
                              make_series(rng, 10)])
        with pytest.raises(FormatError, match="sequence 1 holds NaN or Inf"):
            SequenceStore.write(series, directory)
        assert next(series).values.size == 10  # the stream stopped at the bad sequence
    assert not any(tmp_path.iterdir())


def test_store_write_failure_removes_every_directory_it_made(tmp_path):
    # Into a store three levels below the last directory that exists: a
    # failed write removes all three, deepest first, and nothing that was
    # there before, not even an empty directory beside them.
    (tmp_path / "kept").mkdir()
    rng = np.random.default_rng(13)
    series = [make_series(rng, 10), CleanSeries(values=np.array([1.0, np.nan]))]
    with pytest.raises(FormatError, match="sequence 1 holds NaN or Inf"):
        SequenceStore.write(series, tmp_path / "made" / "deeper" / "store")
    with pytest.raises(FormatError, match="sequence 1 holds NaN or Inf"):
        SequenceStore.write(series, tmp_path / "kept" / "store")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["kept"]


def test_store_write_consumes_its_iterable_once(tmp_path):
    class Once:
        def __init__(self, items):
            self.items, self.iterations = items, 0

        def __iter__(self):
            self.iterations += 1
            return iter(self.items)

    rng = np.random.default_rng(23)
    series = [make_series(rng, n, d) for n, d in ((5, "b"), (0, "a"), (7, "b"))]
    source = Once(series)
    store = SequenceStore.write(source, tmp_path)
    assert source.iterations == 1 and len(store) == 3 and store.domains() == ["a", "b"]
    for i, s in enumerate(series):
        assert store.read(i).values.tobytes() == s.values.tobytes()
        assert store.read(i).domain == s.domain


def test_store_write_peak_memory_does_not_grow_with_the_corpus(tmp_path):
    # Each sequence is 4 KB as float32; only the 12-byte index record of a
    # sequence may stay behind, so 10x the corpus adds well under its data.
    def peak(count):
        rng = np.random.default_rng(24)
        series = (CleanSeries(values=rng.normal(size=1024), domain="abc"[i % 3])
                  for i in range(count))
        tracemalloc.start()
        try:
            SequenceStore.write(series, tmp_path / str(count))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(100), peak(1000)
    assert large - small < 64 * 900, (small, large)
    assert large < 4096 * 1000 / 10, (small, large)


def test_store_write_rejects_a_domain_that_is_not_a_str(tmp_path):
    # open rejects such an entry, so write must not make one.
    with pytest.raises(FormatError, match="sequence 0: domain must be a str"):
        SequenceStore.write([CleanSeries(values=np.ones(4), domain=3)], tmp_path)
    assert not tmp_path.joinpath("store.bin").exists()


def test_store_rejects_empty_write(tmp_path):
    with pytest.raises(ValueError):
        SequenceStore.write([], tmp_path)
    assert not any(tmp_path.iterdir())


def test_store_read_is_a_read_only_view_of_the_map(tmp_path):
    rng = np.random.default_rng(18)
    series = [make_series(rng, 10), make_series(rng, 20)]
    SequenceStore.write(series, tmp_path)
    store = SequenceStore.open(tmp_path)
    values = store.read(1).values
    assert not values.flags.writeable
    assert np.shares_memory(values, store.points)
    assert values.tobytes() == series[1].values.tobytes()


def test_store_rewritten_while_open_keeps_its_own_values(tmp_path):
    """write renames its files into place, so a store that is open keeps the
    files it mapped; truncating one in place would end the process with
    SIGBUS on the first page past the new end, hence the subprocess."""
    code = ("import sys\n"
            "import numpy as np\n"
            "from sparsecast.data import CleanSeries, SequenceStore\n"
            "own = [np.arange(n, dtype=np.float32) + 0.5 for n in (4000, 3000)]\n"
            "SequenceStore.write([CleanSeries(values=v, domain='a') for v in own], sys.argv[1])\n"
            "a = SequenceStore.open(sys.argv[1])\n"
            "SequenceStore.write([CleanSeries(values=np.ones(10), domain='b')], sys.argv[1])\n"
            "for i, v in enumerate(own):\n"
            "    assert a.read(i).values.tobytes() == v.tobytes(), i\n"
            "b = SequenceStore.open(sys.argv[1])\n"
            "assert len(b) == 1 and b.read(0).values.tobytes() == np.ones(10, '<f4').tobytes()\n"
            "print('ok')\n")
    env = {**os.environ, "PYTHONPATH": str(Path(sparsecast.__file__).resolve().parent.parent)}
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, (proc.returncode, proc.stderr)
    assert proc.stdout.strip() == "ok"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["store.bin", "store.idx"]


def test_store_of_empty_sequences_opens_and_has_nothing_to_sample(tmp_path):
    SequenceStore.write([CleanSeries(values=np.zeros(0)), CleanSeries(values=np.zeros(0))],
                        tmp_path)
    assert (tmp_path / "store.bin").stat().st_size == 0
    store = SequenceStore.open(tmp_path)
    assert len(store) == 2 and store.read(1).values.size == 0
    with pytest.raises(ValueError, match="no sequences of length >= 2"):
        sample_batch(store, np.random.default_rng(0), 1, 16)


# --- packing ----------------------------------------------------------------------


def test_single_long_sequence_single_crop(tmp_path):
    rng = np.random.default_rng(12)
    store = SequenceStore.write([make_series(rng, 500)], tmp_path)
    batch = sample_batch(store, np.random.default_rng(0), 1, 32)
    assert batch.tokens.shape == (1, 32, 1)
    assert not batch.pad_mask.any()
    assert len(np.unique(batch.seq_ids[0])) == 1


def test_two_short_sequences_pack_with_padding(tmp_path):
    rng = np.random.default_rng(13)
    series = [make_series(rng, 10), make_series(rng, 10)]
    store = SequenceStore.write(series, tmp_path)
    batch = sample_batch(store, np.random.default_rng(1), 1, 32)
    ids = batch.seq_ids[0]
    assert np.all(np.diff(ids) >= 0)  # non-decreasing within the row
    assert batch.pad_mask[0].sum() >= 0
    # crops cover the first positions; pad-masked tail has its own id
    if batch.pad_mask[0].any():
        first_pad = int(np.argmax(batch.pad_mask[0]))
        assert (ids[first_pad:] == ids[first_pad]).all()
        assert (batch.tokens[0, first_pad:, 0] == 0).all()


def test_domain_frequencies_within_binomial_bounds(tmp_path):
    rng = np.random.default_rng(14)
    series = [make_series(rng, 50, "A"), make_series(rng, 50, "B")]
    store = SequenceStore.write(series, tmp_path)
    weights = {"A": 0.9, "B": 0.1}
    names, probs = normalize_weights(weights, store.domains())
    draws = 10_000
    sampler = np.random.default_rng(15)
    hits = sum(draw_domain(sampler, names, probs) == "A" for _ in range(draws))
    sigma = np.sqrt(draws * 0.9 * 0.1)
    assert abs(hits - draws * 0.9) <= 3 * sigma


def test_sample_batch_requires_weight_coverage(tmp_path):
    rng = np.random.default_rng(16)
    store = SequenceStore.write([make_series(rng, 50, "A"), make_series(rng, 50, "B")], tmp_path)
    with pytest.raises(ValueError, match="missing"):
        sample_batch(store, np.random.default_rng(2), 1, 16, domain_weights={"A": 1.0})


def mixed_store(tmp_path, rng):
    """Sequences of 0, 1, 2 and up to about 900 points in four domains;
    domain "d" has no sequence a crop can start in."""
    lengths = [0, 1, 2, 3, 17, 64, 255, 256, 257, 511, 900, 2, 0, 130, 1, 880]
    return SequenceStore.write([make_series(rng, n, "abc"[k % 3] if n >= 2 else "d")
                                for k, n in enumerate(lengths)], tmp_path)


@pytest.mark.parametrize("weights", [None, {"a": 1.0, "b": 0.0, "c": 2.5}])
def test_sample_batch_matches_the_per_call_index_and_whole_sequence_reads(tmp_path, weights):
    store = mixed_store(tmp_path, np.random.default_rng(19))
    assert len(store) == 16 and store.domains() == ["a", "b", "c", "d"]
    assert "d" not in store.croppable
    for seed in range(40):
        got = sample_batch(store, np.random.default_rng(seed), 3, 256, weights)
        want = reference_sample_batch(store, np.random.default_rng(seed), 3, 256, weights)
        for name in ("tokens", "seq_ids", "pad_mask"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (seed, name)


def test_sample_batch_deterministic_under_seed(tmp_path):
    rng = np.random.default_rng(17)
    store = SequenceStore.write([make_series(rng, 200, d) for d in "AB"], tmp_path)
    a = sample_batch(store, np.random.default_rng(3), 4, 64)
    b = sample_batch(store, np.random.default_rng(3), 4, 64)
    np.testing.assert_array_equal(a.tokens, b.tokens)
    np.testing.assert_array_equal(a.seq_ids, b.seq_ids)


# --- CSV --------------------------------------------------------------------------


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "toy.csv"
    values = np.array([[1.5, -2.0], [3.25, 4.0], [0.125, 9.5]])
    write_csv(path, values, ["x", "y"])
    loaded = load_csv(path, CsvSchema(splits=(1, 1, 1)))
    np.testing.assert_array_equal(loaded.values, values)
    assert loaded.columns == ["x", "y"]
    assert loaded.splits == (1, 1, 1)


def test_csv_timestamp_column_ignored(tmp_path):
    path = tmp_path / "ts.csv"
    path.write_text("date,a,b\n2020-01-01,1,2\n2020-01-02,3,4\n2020-01-03,5,6\n")
    loaded = load_csv(path, CsvSchema(splits=(1, 1, 1)))
    assert loaded.columns == ["a", "b"]
    np.testing.assert_array_equal(loaded.values, [[1, 2], [3, 4], [5, 6]])


def test_csv_benchmark_shaped_splits(tmp_path):
    path = tmp_path / "bench.csv"
    rows = 14307
    rng = np.random.default_rng(18)
    with open(path, "w") as f:
        f.write(",".join(f"ch{i}" for i in range(7)) + "\n")
        data = rng.normal(size=(rows, 7))
        for r in data:
            f.write(",".join(f"{v:.4f}" for v in r) + "\n")
    loaded = load_csv(path, CsvSchema(splits=(8545, 2881, 2881)))
    assert loaded.values.shape == (14307, 7)
    assert loaded.splits == (8545, 2881, 2881)


def test_csv_missing_column_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(FormatError, match="not present"):
        load_csv(path, CsvSchema(columns=["a", "z"]))


def test_csv_non_numeric_cell_reports_location(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n3,oops\n")
    with pytest.raises(FormatError, match=r"row 3, column 'b'"):
        load_csv(path)


def test_csv_bad_splits_rejected(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("a\n1\n2\n3\n")
    with pytest.raises(FormatError):
        load_csv(path, CsvSchema(splits=(5, 1, 1)))


@pytest.mark.parametrize("splits", [(40, -5, 15), (1.2, -0.2, 0.0), (0.6, 0.6, -0.2)])
def test_csv_negative_splits_rejected(tmp_path, splits):
    # Each loaded before: (1.2, -0.2, 0.0) as (60, -10, 0) rows.
    path = tmp_path / "s.csv"
    write_csv(path, np.arange(50.0), ["a"])
    with pytest.raises(FormatError, match="split sizes must be >= 0"):
        load_csv(path, CsvSchema(splits=splits))


@pytest.mark.parametrize("splits", [("a", 0, 0), (None, 0.5, 0.5), ([1], 0, 0), (True, 25, 24)])
def test_csv_splits_that_are_not_numbers_rejected(tmp_path, splits):
    # ("a", 0, 0) was a TypeError ('<' not supported), (True, 25, 24) a 1-row train split.
    path = tmp_path / "s.csv"
    write_csv(path, np.arange(50.0), ["a"])
    with pytest.raises(FormatError, match="splits must hold numbers"):
        load_csv(path, CsvSchema(splits=splits))


# --- CSV: the np.loadtxt parser against the cell-by-cell oracle -------------------


def csv_text(header, rows, newline="\n", final_newline=True):
    text = newline.join([",".join(header)] + [",".join(r) for r in rows])
    return text + newline if final_newline else text


def random_cells(rng, rows, cols, kind):
    values = rng.normal(scale=50.0, size=(rows, cols))
    if kind == "repr":
        return [[repr(float(v)) for v in r] for r in values]
    if kind == "float32":
        return [[repr(float(v)) for v in r] for r in values.astype(np.float32)]
    return [[f"{v:.4f}" for v in r] for r in values]


def accepted_files():
    rng = np.random.default_rng(7)
    cols = ["a", "b", "c"]
    files = {
        kind: (csv_text(cols, random_cells(rng, 40, 3, kind)), None)
        for kind in ("repr", "float32", "fixed4")
    }
    stamps = [f"2020-01-{d:02d} 00:00" for d in range(1, 31)]
    files["timestamp"] = (csv_text(["date"] + cols, [[t] + r for t, r in zip(
        stamps, random_cells(rng, 30, 3, "repr"))]), None)
    files["quoted"] = (csv_text(['"a"', "b"], [['"1.5"', "-2"], ["3", '"4e-3"']]), None)
    files["crlf"] = (csv_text(cols, random_cells(rng, 20, 3, "repr"), newline="\r\n"), None)
    files["no_final_newline"] = (csv_text(cols, random_cells(rng, 20, 3, "repr"),
                                          final_newline=False), None)
    notes = ['"ok, fine"' if i % 3 == 0 else "n/a" for i in range(30)]
    files["schema_subset"] = (csv_text(["date", "a", "note", "b"], [
        [t, x, n, y] for t, n, (x, y) in zip(stamps, notes, random_cells(rng, 30, 2, "repr"))]),
        ["b", "a"])
    files["special_values"] = (csv_text(["a", "b"], [["nan", "-inf"], [" 1.5 ", "-0.0"],
                                                     ["1e400", "+.5"]]), None)
    return files


ACCEPTED = accepted_files()


def assert_same_load(path, schema):
    got, want = load_csv(path, schema), reference_load_csv(path, schema)
    assert got.values.dtype == np.float64 and got.values.flags.c_contiguous
    assert got.values.shape == want.values.shape
    np.testing.assert_array_equal(got.values.view(np.int64), want.values.view(np.int64))
    assert (got.columns, got.splits, got.path) == (want.columns, want.splits, want.path)


@pytest.mark.parametrize("case", sorted(ACCEPTED))
def test_load_csv_matches_oracle_bit_for_bit(tmp_path, case):
    text, columns = ACCEPTED[case]
    path = tmp_path / f"{case}.csv"
    path.write_bytes(text.encode())
    assert_same_load(path, CsvSchema(columns=columns))


def test_load_csv_matches_oracle_on_benchmark_shape(tmp_path):
    path = tmp_path / "bench.csv"
    rng = np.random.default_rng(18)
    write_csv(path, rng.normal(scale=10.0, size=(14307, 7)), [f"ch{i}" for i in range(7)])
    assert_same_load(path, CsvSchema(splits=(8545, 2881, 2881)))


REJECTED = {
    # case: (file text, message after "<path>: ", whether the oracle gives the same)
    "empty_cell": ("a,b\n1,2\n3,\n", "non-numeric cell '' at row 3, column 'b'", True),
    "short_row": ("a,b\n1,2\n3\n", "row 3 has 1 cells, header has 2", True),
    "long_row": ("a,b\n1,2,9\n3,4\n", "row 2 has 3 cells, header has 2", True),
    "blank_line_middle": ("a,b\n1,2\n\n3,4\n", "row 3 has 0 cells, header has 2", True),
    "blank_line_end": ("a,b\n1,2\n3,4\n\n", "row 4 has 0 cells, header has 2", True),
    "blank_first_row": ("a,b\n\n1,2\n", "row 2 has 0 cells, header has 2", False),
    "hash_cell": ("a,b\n1,#3\n", "non-numeric cell '#3' at row 2, column 'b'", True),
    "header_only": ("a,b\n", "no data rows", True),
    "empty_file": ("", "empty file", True),
    "bad_cell_behind_timestamp": ("date,a\n2020-01-01,1\n2020-01-02,x1\n",
                                  "non-numeric cell 'x1' at row 3, column 'a'", True),
    "underscore_digits": ("a,b\n1,2\n1_000,3\n", "non-numeric cell '1_000' at row 3, column 'a'",
                          False),
    "timestamps_only": ("date\n2020-01-01\n2020-01-02\n", "no numeric columns", False),
    "huge_cell": ("a,b\n1,2\n3," + "x" * 200_000 + "\n",
                  "field larger than field limit (131072)", False),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_load_csv_rejects_with_exact_message(tmp_path, case):
    text, message, oracle_agrees = REJECTED[case]
    path = tmp_path / f"{case}.csv"
    path.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError) as err:
            load_csv(path)
    assert str(err.value) == f"{path}: {message}"
    if oracle_agrees:
        with pytest.raises(FormatError) as want:
            reference_load_csv(path)
        assert str(want.value) == str(err.value)


def test_load_csv_rejects_non_utf8_bytes(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"a,b\n1,2\n3,\xff\n")
    with pytest.raises(FormatError, match="not UTF-8 text"):
        load_csv(path)


def test_load_csv_strips_utf8_bom(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes("\ufeffa,b\n1,2\n".encode())
    loaded = load_csv(path, CsvSchema(columns=["a"], splits=(1, 0, 0)))
    assert loaded.columns == ["a"]
    np.testing.assert_array_equal(loaded.values, [[1.0]])


@pytest.mark.parametrize("values", [
    np.random.default_rng(3).normal(size=(50, 4)),
    np.random.default_rng(4).normal(size=(50, 4)).astype(np.float32),
    np.arange(-20, 20).reshape(10, 4),
    np.random.default_rng(5).normal(size=2500),
], ids=["float64", "float32", "int", "1d"])
def test_write_csv_bytes_match_oracle(tmp_path, values):
    write_csv(tmp_path / "got.csv", values)
    reference_write_csv(tmp_path / "want.csv", values)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
