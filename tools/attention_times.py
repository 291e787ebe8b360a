"""Time tensor.masked_attention on the shapes that decide training, rollout
and evaluation cost, and print the minimum and median of N calls per case.

Cases, each at (heads, d_head) = (4, 8), the benchmark width, and (12, 32),
the paper's d_model 384:
- inference on one segment of 96, 512 and 3072 keys (a prefill);
- a 64-row decode push against 576 and 3072 keys, the first 512 and 3008
  of them cached;
- a recorded forward plus its vjp (Graph.backward of a weighted sum of the
  output) on the benchmark's 4 x 256 segment mix, drawn by the sampler from
  a synthetic regime store, and on one 4096-point segment.

q, k and v are projected from random rows by linear, reshape and rope, as
the model projects them, before the timed region; a recorded call takes
them as leaves with their rows and weights as its source, so only attention
and its vjp are timed. Uses the standard library, numpy and the package
under src/ only. One warm-up call precedes the N timed calls of a case.

Run:  python3 tools/attention_times.py [N]    (default N = 5; under 60 s on
two cores at the default)
"""

import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sparsecast import tensor as T  # noqa: E402
from sparsecast.data import sample_batch  # noqa: E402
from sparsecast.model import segment_bounds  # noqa: E402
from sparsecast.synthetic import build_regime_store  # noqa: E402
from sparsecast.train import flat_batch  # noqa: E402

WIDTHS = ((4, 8), (12, 32))


def benchmark_bounds() -> np.ndarray:
    """Segment bounds of one 4 x 256 batch laid end to end, as train_packed draws it."""
    with tempfile.TemporaryDirectory() as directory:
        store = build_regime_store(directory, np.random.default_rng(1), per_regime=6)
        batch = sample_batch(store, np.random.default_rng(2), 4, 256)
    return segment_bounds(flat_batch(batch)[1])


def projected(rng, t: int, heads: int, d_head: int) -> tuple:
    """(q, k, v, source) for t random rows, projected as the model projects them."""
    d = heads * d_head
    x = T.Tensor(rng.normal(size=(t, d)).astype(np.float32))
    pairs = [(T.Tensor(rng.normal(scale=d ** -0.5, size=(d, d)).astype(np.float32)),
              T.Tensor(np.zeros(d, dtype=np.float32))) for _ in range(3)]
    tables = T.rope_tables(np.arange(t), heads, d_head)
    q, k, v = (T.reshape(T.linear(x, w, b), (t, heads, d_head)) for w, b in pairs)
    return T.rope(q, tables), T.rope(k, tables), v, (x, pairs, tables)


def inference(rng, heads, d_head, n_q, n_k):
    """A call on the last n_q of n_k positions of one segment, outside any graph."""
    q, k, v, _ = projected(rng, n_k, heads, d_head)
    q = T.Tensor(q.data[n_k - n_q:])
    bounds = np.array([0, n_k])
    return lambda: T.masked_attention(q, k, v, bounds)


def recorded(rng, heads, d_head, bounds):
    """A recorded call on the segments bounds and the backward of a weighted sum of its output."""
    t = int(bounds[-1])
    q, k, v, source = projected(rng, t, heads, d_head)
    leaves = [T.Tensor(a.data, requires_grad=True) for a in (q, k, v)]
    w = rng.normal(size=(t, heads, d_head)).astype(np.float32)

    def call():
        for leaf in leaves:
            leaf.grad = None
        with T.Graph() as graph:
            loss = T.weighted_sum(T.masked_attention(*leaves, bounds, source=source), w)
        graph.backward(loss)

    return call


def blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        return "unknown"


def main(argv: list) -> int:
    n = int(argv[0]) if argv else 5
    if n < 1:
        print("error: N must be a positive int", file=sys.stderr)
        return 1
    mix = benchmark_bounds()
    cases = [("inference, 1 segment of 96 keys", lambda r, h, d: inference(r, h, d, 96, 96)),
             ("inference, 1 segment of 512 keys", lambda r, h, d: inference(r, h, d, 512, 512)),
             ("inference, 1 segment of 3072 keys",
              lambda r, h, d: inference(r, h, d, 3072, 3072)),
             ("push of 64 rows on 576 keys", lambda r, h, d: inference(r, h, d, 64, 576)),
             ("push of 64 rows on 3072 keys", lambda r, h, d: inference(r, h, d, 64, 3072)),
             (f"recorded + vjp, 4 x 256 mix ({len(mix) - 1} segments)",
              lambda r, h, d: recorded(r, h, d, mix)),
             ("recorded + vjp, 1 segment of 4096",
              lambda r, h, d: recorded(r, h, d, np.array([0, 4096])))]
    print(f"numpy {np.__version__}, BLAS {blas_name()}, {os.cpu_count()} cores, "
          f"ATTENTION_TILE {T.ATTENTION_TILE}, {n} calls per case")
    print(f"{'case':<46} {'heads x d_head':>14} {'min ms':>9} {'median ms':>10}")
    for heads, d_head in WIDTHS:
        for name, build in cases:
            call = build(np.random.default_rng(0), heads, d_head)
            call()  # warm-up
            times = []
            for _ in range(n):
                start = time.perf_counter()
                call()
                times.append(1e3 * (time.perf_counter() - start))
            print(f"{name:<46} {f'{heads} x {d_head}':>14} {min(times):9.2f} "
                  f"{statistics.median(times):10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
