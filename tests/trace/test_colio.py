"""RPCOL1 columnar trace format: round-trips, corruption, shared mmaps."""

import multiprocessing
import struct

import pytest

from repro.cache.config import CacheGeometry
from repro.errors import TraceFormatError, ValidationError
from repro.trace import colio
from repro.trace.binio import read_binary_trace_batches, write_binary_trace
from repro.trace.colio import (
    COLUMNAR_MAGIC,
    convert_trace_to_columnar,
    open_columnar_trace,
    write_columnar_trace,
)

from tests.conftest import make_random_trace

GEOMETRY = CacheGeometry(size_bytes=512, associativity=2, block_bytes=32)


def write_sample(tmp_path, n=600, seed=50, name="t.rpcol"):
    trace = make_random_trace(n, seed=seed, word_span=300, write_share=0.5)
    path = tmp_path / name
    assert write_columnar_trace(path, trace, GEOMETRY) == n
    return path, trace


class TestWriter:
    def test_count_and_layout(self, tmp_path):
        path, trace = write_sample(tmp_path, n=11)
        size = path.stat().st_size
        # header + 6 u64 columns + kind column padded to 8 + crc
        assert size == 40 + 6 * 8 * 11 + 16 + 4

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.rpcol"
        assert write_columnar_trace(path, [], GEOMETRY) == 0


class TestRoundTrip:
    def test_columns_match_binary_batches(self, tmp_path):
        """RPCOL1 columns are bit-identical to the RPTRACE2 decode."""
        trace = make_random_trace(700, seed=51, word_span=250, write_share=0.4)
        bin_path = tmp_path / "t.bin"
        col_path = tmp_path / "t.rpcol"
        write_binary_trace(bin_path, trace, crc=True)
        write_columnar_trace(col_path, trace, GEOMETRY)
        with open_columnar_trace(col_path) as columnar:
            batches = list(columnar.batches(128))
        reference = list(read_binary_trace_batches(bin_path, GEOMETRY, 128))
        assert len(batches) == len(reference)
        for got, want in zip(batches, reference):
            assert got == want

    def test_accesses_round_trip(self, tmp_path):
        path, trace = write_sample(tmp_path)
        with open_columnar_trace(path) as columnar:
            assert list(columnar.accesses()) == list(trace)

    def test_converter_from_binary(self, tmp_path):
        trace = make_random_trace(300, seed=52, word_span=120)
        bin_path = tmp_path / "t.bin"
        col_path = tmp_path / "t.rpcol"
        write_binary_trace(bin_path, trace, crc=True)
        assert convert_trace_to_columnar(bin_path, col_path, GEOMETRY) == 300
        with open_columnar_trace(col_path) as columnar:
            assert list(columnar.accesses()) == list(trace)

    def test_converter_propagates_source_corruption(self, tmp_path):
        trace = make_random_trace(50, seed=53)
        bin_path = tmp_path / "t.bin"
        write_binary_trace(bin_path, trace, crc=True)
        blob = bytearray(bin_path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        bin_path.write_bytes(bytes(blob))
        with pytest.raises(TraceFormatError):
            convert_trace_to_columnar(bin_path, tmp_path / "t.rpcol", GEOMETRY)
        assert not (tmp_path / "t.rpcol").exists()

    def test_resplit_under_other_geometry(self, tmp_path):
        path, trace = write_sample(tmp_path)
        other = CacheGeometry(size_bytes=4 * 1024, associativity=4, block_bytes=64)
        codec = other.codec
        with open_columnar_trace(path, other) as columnar:
            assert columnar.geometry == other
            assert columnar.stored_geometry == GEOMETRY
            for i, access in enumerate(trace):
                address = access.address
                assert columnar.set_indices[i] == (
                    (address >> codec.index_shift) & codec.index_mask
                )
                assert columnar.tags[i] == (
                    (address >> codec.tag_shift) & codec.tag_mask
                )

    def test_chunks_are_zero_copy_views(self, tmp_path):
        np = colio.np
        path, trace = write_sample(tmp_path)
        with open_columnar_trace(path) as columnar:
            assert not columnar.addresses.flags["OWNDATA"]
            chunks = list(columnar.chunks(128))
            assert sum(len(chunk) for chunk in chunks) == len(trace)
            for chunk in chunks:
                assert np.shares_memory(chunk.addresses, columnar.addresses)
        # close() with escaped views must not raise; the OS mapping
        # outlives the ColumnarTrace until the last view dies.
        assert int(chunks[0].addresses[0]) == trace[0].address

    def test_bad_chunk_size_rejected(self, tmp_path):
        path, _ = write_sample(tmp_path, n=10)
        with open_columnar_trace(path) as columnar:
            with pytest.raises(ValidationError, match="batch_size"):
                next(columnar.chunks(0))


class TestCorruption:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.rpcol"
        path.write_bytes(b"")
        with pytest.raises(TraceFormatError, match="empty columnar trace"):
            open_columnar_trace(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.rpcol"
        path.write_bytes(COLUMNAR_MAGIC + b"\x00" * 8)
        with pytest.raises(TraceFormatError, match="truncated columnar header"):
            open_columnar_trace(path)

    def test_bad_magic(self, tmp_path):
        path, _ = write_sample(tmp_path, n=4)
        blob = bytearray(path.read_bytes())
        blob[:8] = b"RPTRACE9"
        path.write_bytes(bytes(blob))
        with pytest.raises(TraceFormatError, match="bad magic"):
            open_columnar_trace(path)

    def test_truncated_columns(self, tmp_path):
        path, _ = write_sample(tmp_path, n=20)
        blob = path.read_bytes()
        path.write_bytes(blob[:-12])
        with pytest.raises(TraceFormatError, match="truncated columnar trace"):
            open_columnar_trace(path)

    def test_crc_mismatch_detected(self, tmp_path):
        path, _ = write_sample(tmp_path, n=20)
        blob = bytearray(path.read_bytes())
        blob[40 + 7] ^= 0x01  # flip one bit inside the icount column
        path.write_bytes(bytes(blob))
        with pytest.raises(TraceFormatError, match="CRC mismatch"):
            open_columnar_trace(path)

    def test_header_lies_about_count(self, tmp_path):
        path, _ = write_sample(tmp_path, n=8)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<Q", blob, 8, 9)  # count field: 8 -> 9
        path.write_bytes(bytes(blob))
        with pytest.raises(TraceFormatError, match="truncated columnar trace"):
            open_columnar_trace(path)


def _replay_from_mapping(path_str):
    """Worker: map the RPCOL1 file, replay it, return one campaign row."""
    from repro.sim.simulator import Simulator
    from repro.trace.colio import open_columnar_trace

    with open_columnar_trace(path_str) as columnar:
        simulator = Simulator("conventional", columnar.geometry)
        simulator.feed_chunks(columnar.chunks(128))
        result = simulator.finish()
    return {
        "events": result.events.to_dict(),
        "requests": result.requests,
        "hits": result.cache_stats.hits,
        "misses": result.cache_stats.misses,
    }


class TestSharedMapping:
    def test_two_processes_share_one_mapping(self, tmp_path):
        """Two workers mapping the same file produce identical rows.

        This is the multiprocess campaign contract: every worker opens
        the same ``RPCOL1`` file read-only, the OS page cache backs all
        mappings with one physical copy, and each worker's replay is
        bit-identical to an in-process run.
        """
        path, trace = write_sample(tmp_path, n=400, seed=54)
        reference = _replay_from_mapping(str(path))
        context = multiprocessing.get_context("spawn")
        with context.Pool(2) as pool:
            rows = pool.map(_replay_from_mapping, [str(path)] * 2)
        assert rows[0] == reference
        assert rows[1] == reference
        assert reference["requests"] == len(trace)
