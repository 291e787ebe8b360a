"""Walk through the data-curation pipeline and the binary sequence store.

Builds a deliberately messy series (gaps, constant stretches, zero runs),
shows what each cleaning stage does to it, then round-trips the survivors
through the on-disk store.

Run:  python3 demos/curate_and_store.py
"""

import tempfile

import numpy as np

from sparsecast.data import (
    CleanConfig,
    RawSeries,
    SequenceStore,
    check_window,
    clean_series,
    split_by_nan_inf,
)

rng = np.random.default_rng(7)

# A sensor trace that drops out twice and flatlines once.
signal = np.cumsum(rng.normal(size=1400)) + 10
signal[300:320] = np.nan                 # transmission gap
signal[700] = np.inf                     # spike artifact
signal[900:1100] = signal[899]           # stuck sensor: constant fill

print("raw series:", len(signal), "points,",
      int(np.isnan(signal).sum()), "NaN,", int(np.isinf(signal).sum()), "Inf")

print("\n--- stage 1: split at NaN/Inf ---")
runs = split_by_nan_inf(signal, min_len=128)
for start, run in runs:
    print(f"  finite run at [{start}, {start + len(run)}), {len(run)} points")

print("\n--- stage 2: window-quality scan ---")
flat = signal[900:1028]
ok, info = check_window(flat, zero_threshold=0.2)
print(f"  flatlined window passes? {ok}  "
      f"(first-difference zero ratio {info['first_diff_zero_ratio']:.2f})")
ok, info = check_window(signal[0:128], zero_threshold=0.2)
print(f"  healthy window passes?   {ok}  "
      f"(first-difference zero ratio {info['first_diff_zero_ratio']:.2f})")

config = CleanConfig(window_size=128, zero_threshold=0.2, min_len=256)
segments = clean_series(RawSeries(values=signal, domain="demo", source="sensor-3"),
                        config)
print("\n--- full pipeline ---")
for seg in segments:
    print(f"  kept {len(seg)} points from raw intervals {seg.origin.intervals}")

with tempfile.TemporaryDirectory() as tmp:
    store = SequenceStore.write(segments, tmp, name="demo")
    reopened = SequenceStore.open(tmp)
    print(f"\nstore: {len(reopened)} sequences, {reopened.total_points} points, "
          f"domains {reopened.domains()}")
    first = reopened.read(0)
    exact = np.array_equal(first.values,
                           segments[0].values.astype(np.float32))
    print(f"read-back of sequence 0 is bit-exact: {exact}")
