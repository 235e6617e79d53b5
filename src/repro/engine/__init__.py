"""Execution engines.

The throughput layers of the simulator.  Tier one is the batched
engine: struct-of-arrays trace batches (:mod:`repro.engine.batch`)
feed the controllers' ``process_batch()`` fast paths, several times
faster than the scalar ``process()`` loop and bit-identical to it (see
``docs/performance.md`` and the differential suite in
``tests/engine/``).  Tier two is the columnar engine
(:mod:`repro.engine.columnar`): chunks become NumPy arrays — zero-copy
views when read from ``RPCOL1`` mmap traces (:mod:`repro.trace.colio`)
— and vectorized kernels replace the per-record Python loop for the
common case.  :mod:`repro.engine.bench` measures all tiers.
"""

from repro.engine.batch import AccessBatch, DEFAULT_BATCH_SIZE, iter_batches
from repro.engine.bench import (
    BenchResult,
    bench_report,
    run_hotpath_bench,
)
from repro.engine.columnar import ColumnarChunk, iter_chunks, process_chunk

__all__ = [
    "AccessBatch",
    "DEFAULT_BATCH_SIZE",
    "iter_batches",
    "BenchResult",
    "bench_report",
    "run_hotpath_bench",
    "ColumnarChunk",
    "iter_chunks",
    "process_chunk",
]
