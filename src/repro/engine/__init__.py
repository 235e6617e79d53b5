"""Execution engines.

The throughput layer of the simulator.  :mod:`repro.engine.batch`
decodes trace chunks into struct-of-arrays :class:`AccessBatch` lists;
the columnar engine (:mod:`repro.engine.columnar`) lifts them — or
zero-copy views of ``RPCOL1`` mmap traces (:mod:`repro.trace.colio`)
and of the generator's columns — into NumPy chunks and runs them
through vectorized kernels, bit-identical to the scalar ``process()``
loop it falls back to (see ``docs/performance.md`` and the
differential suite in ``tests/engine/``).  :mod:`repro.engine.bench`
times the columnar engine against scalar.
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
