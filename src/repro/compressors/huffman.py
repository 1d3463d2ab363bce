"""Chunked canonical Huffman coding of integer symbol streams.

SZ2 and SZ3 entropy-code their quantization indices with Huffman before the
final lossless stage.  This module provides a self-contained canonical Huffman
coder over non-negative integer symbols:

* tree construction with :mod:`heapq` on the symbol histogram,
* code lengths limited to :data:`MAX_CODE_LENGTH` bits (package-merge style
  rebalancing by clamping and re-normalizing Kraft mass),
* vectorized encoding (each code is scattered at its cumulative bit offset
  into big-endian 64-bit words, a few NumPy passes per group of chunks),
* table-driven decoding (a flat lookup table indexed by ``MAX_CODE_LENGTH``-bit
  windows, the classic fast canonical decoder).

Bitstream format (version 3)
----------------------------

The symbol stream is split into fixed-size chunks that share one global code
table but are *independently decodable*: a per-chunk ``(bit_offset,
symbol_count)`` index in the header lets the decoder enter the bitstream at
any chunk boundary.  All integers little-endian::

    4s    magic b"HUF3"
    u32   CRC-32 of everything after this field
    u32   alphabet size A
    u64   total symbol count
    u32   chunk size (symbols per full chunk)
    u32   number of chunks
    u8[A] per-symbol code lengths (0 = unused symbol)
    per chunk: u64 bit offset, u64 symbol count
    u64   total bit count
    u8[]  packed code bits (MSB-first)

The chunk index is what makes the decode side parallel *and* vectorizable.
The worker count sets the number of bands; the band's width (its chunk
count) picks the kernel:

* one worker (or ``backend="serial"``) decodes the whole stream as one band
  in-process; more workers split the chunk list into bands of at least
  :data:`_MIN_VECTOR_CHUNKS` chunks and dispatch them to the configured
  :class:`~repro.utils.parallel.ExecutionBackend` (threads or processes).
  Each band is a self-contained, picklable work unit — the worker receives
  its slice of the packed bit stream, the code-length table, and the band's
  chunk index, and *returns* the decoded symbol band rather than mutating a
  shared output array, so the same task function runs unchanged on a thread
  pool or across a process boundary,
* a band of at least :data:`_MIN_VECTOR_CHUNKS` chunks decodes as one
  vectorized NumPy "row walk": each step advances every chunk's bit cursor
  by one decoded symbol, so the sequential dependency only spans a chunk,
  not the stream.  A narrower band runs the per-symbol scalar loop
  (:meth:`HuffmanCoder._decode_scalar`, also the tests' reference), which is
  faster there because the walk's per-step cost does not depend on width.

A corrupted or truncated payload always raises :class:`ValueError`: every
header field is bounds-checked, the CRC covers the whole payload, an unused
lookup-table window (a code that exists in no symbol's prefix set) is
detected, and every chunk must decode to exactly its recorded boundary.

The encoded payload is self-describing: it stores the code-length table so the
decoder needs no side channel.
"""

from __future__ import annotations

import functools
import heapq
import os
import struct
import zlib
from collections.abc import Sequence

import numpy as np

from repro.utils.bitstream import StreamBuffer
from repro.utils.parallel import ExecutionBackend, get_backend

__all__ = ["HuffmanCoder", "ChunkBandConsumer", "ChunkBandProducer",
           "MAX_CODE_LENGTH", "DEFAULT_CHUNK_SYMBOLS"]

#: Longest permitted codeword.  16 keeps the decode lookup table at 64K entries.
MAX_CODE_LENGTH = 16

#: Default (and cap) for symbols per chunk.  Streams much smaller than
#: ``DEFAULT_CHUNK_SYMBOLS * _TARGET_CHUNKS`` get proportionally smaller chunks
#: so the vectorized decoder still sees enough chunks to amortize per-step
#: dispatch overhead across a wide row.
DEFAULT_CHUNK_SYMBOLS = 1 << 16

#: The encoder aims for about this many chunks per stream (bounded by
#: ``chunk_size`` above and ``_MIN_CHUNK_SYMBOLS`` below).  More chunks mean a
#: wider vectorized row walk and more thread-pool parallelism; fewer chunks
#: mean less per-chunk index overhead (16 bytes each).
_TARGET_CHUNKS = 512
_MIN_CHUNK_SYMBOLS = 1024

#: Below this many chunks a band decodes faster with the scalar loop than with
#: the vectorized row walk: the walk costs a fixed few NumPy calls per step
#: whatever the band's width, the scalar loop a fixed cost per symbol.  Set
#: from the measured crossover (``benchmarks/bench_entropy.py``); bands of
#: parallel decodes are never cut narrower than this.
_MIN_VECTOR_CHUNKS = 8

#: Symbols (encode) or packed stream bytes (decode) one vectorized NumPy pass
#: handles at a time: enough to amortize per-call dispatch, few enough to stay
#: cache-resident and to bound the scratch.
_BLOCK = 1 << 15

_MAGIC = b"HUF3"
_HEADER = struct.Struct("<IQII")  # alphabet, count, chunk_size, n_chunks
_PREFIX_LEN = 8                   # magic + crc32


def _build_code_lengths(frequencies: np.ndarray) -> np.ndarray:
    """Return per-symbol code lengths from a frequency histogram.

    Standard Huffman construction; lengths exceeding :data:`MAX_CODE_LENGTH`
    are clamped and the length table re-normalized so the Kraft inequality
    still holds (a slight loss of optimality, never of correctness).
    """
    symbols = np.flatnonzero(frequencies)
    lengths = np.zeros(frequencies.size, dtype=np.int64)
    if symbols.size == 0:
        return lengths
    if symbols.size == 1:
        lengths[symbols[0]] = 1
        return lengths

    # heap entries: (freq, tiebreak, node) where node is a symbol or [left, right]
    counter = 0
    heap: list[tuple[int, int, object]] = []
    for sym in symbols:
        heap.append((int(frequencies[sym]), counter, int(sym)))
        counter += 1
    heapq.heapify(heap)
    while len(heap) > 1:
        f1, _, n1 = heapq.heappop(heap)
        f2, _, n2 = heapq.heappop(heap)
        heapq.heappush(heap, (f1 + f2, counter, (n1, n2)))
        counter += 1

    # depth-first traversal assigning depths
    stack = [(heap[0][2], 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, tuple):
            stack.append((node[0], depth + 1))
            stack.append((node[1], depth + 1))
        else:
            lengths[node] = max(depth, 1)

    if lengths.max() <= MAX_CODE_LENGTH:
        return lengths

    # Clamp over-long codes and restore the Kraft inequality by lengthening the
    # shortest codes until sum(2^-len) <= 1 again.
    lengths[lengths > MAX_CODE_LENGTH] = MAX_CODE_LENGTH
    used = np.flatnonzero(lengths)

    def kraft(ls: np.ndarray) -> float:
        return float(np.sum(2.0 ** (-ls[used].astype(np.float64))))

    while kraft(lengths) > 1.0:
        # lengthen the currently shortest codeword (cheapest in extra bits)
        candidates = used[lengths[used] < MAX_CODE_LENGTH]
        if candidates.size == 0:
            raise RuntimeError("cannot satisfy Kraft inequality within MAX_CODE_LENGTH")
        target = candidates[np.argmin(lengths[candidates])]
        lengths[target] += 1
    return lengths


def _canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Assign canonical code values given per-symbol lengths (0 = unused)."""
    codes = np.zeros(lengths.size, dtype=np.uint32)
    used = np.flatnonzero(lengths)
    if used.size == 0:
        return codes
    # canonical order: by (length, symbol)
    order = used[np.lexsort((used, lengths[used]))]
    code = 0
    prev_len = int(lengths[order[0]])
    for sym in order:
        length = int(lengths[sym])
        code <<= length - prev_len
        codes[sym] = code
        code += 1
        prev_len = length
    return codes


def _corrupt(detail: str) -> ValueError:
    return ValueError(f"corrupt Huffman stream: {detail}")


def _require(payload: bytes, offset: int, needed: int, what: str) -> None:
    """Raise ``ValueError`` unless ``needed`` bytes remain at ``offset``."""
    if needed < 0 or offset + needed > len(payload):
        raise _corrupt(f"{what} needs {needed} bytes at offset {offset}, "
                       f"but only {max(len(payload) - offset, 0)} remain")


def _build_decode_tables(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat ``(symbol, code length)`` lookup tables over all 16-bit windows.

    Canonical codes are assigned in (length, symbol) order, which makes the
    per-code window ranges ``[code << pad, (code + 1) << pad)`` abut exactly
    starting at 0 — the whole table is two :func:`numpy.repeat` calls.  Window
    values past the covered range (possible when Kraft mass was clamped away)
    keep length 0 and symbol -1, the decoders' "no such code" traps.
    """
    used = np.flatnonzero(lengths)
    if used.size == 0:
        raise _corrupt("empty code-length table for a non-empty stream")
    if int(lengths[used].max()) > MAX_CODE_LENGTH:
        raise _corrupt(f"code length exceeds {MAX_CODE_LENGTH}")
    order = used[np.lexsort((used, lengths[used]))]
    spans = np.int64(1) << (MAX_CODE_LENGTH - lengths[order])
    covered = int(spans.sum())
    if covered > (1 << MAX_CODE_LENGTH):
        raise _corrupt("code-length table violates the Kraft inequality")
    table_sym = np.full(1 << MAX_CODE_LENGTH, -1, dtype=np.int64)
    table_len = np.zeros(1 << MAX_CODE_LENGTH, dtype=np.uint8)
    table_sym[:covered] = np.repeat(order, spans)
    table_len[:covered] = np.repeat(lengths[order], spans)
    return table_sym, table_len


@functools.lru_cache(maxsize=128)
def _decode_tables_cached(length_table: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Memoized :func:`_build_decode_tables` keyed by the raw length-table bytes.

    Every band of one stream (and every stream re-using one code table, e.g.
    warm-codebook rounds) shares the same 64K-entry window tables, so the
    two ``np.repeat`` calls run once per distinct table per worker process
    instead of once per :func:`_decode_band_task`.  The cached arrays are
    marked read-only because they are shared across callers.
    """
    lengths = np.frombuffer(length_table, dtype=np.uint8).astype(np.int64)
    table_sym, table_len = _build_decode_tables(lengths)
    table_sym.setflags(write=False)
    table_len.setflags(write=False)
    return table_sym, table_len


def _byte_windows(bit_bytes: np.ndarray, pad_bytes: int) -> np.ndarray:
    """24-bit big-endian windows starting at every byte, zero-padded at the end.

    The 16-bit decode window at bit position ``p`` is
    ``(w24[p >> 3] >> (8 - (p & 7))) & 0xFFFF``.
    """
    padded = np.concatenate([bit_bytes, np.zeros(pad_bytes, dtype=np.uint8)]).astype(np.int64)
    return (padded[:-2] << 16) | (padded[1:-1] << 8) | padded[2:]


#: Right shifts that cut the 16-bit windows at a byte's 8 bit positions (MSB
#: first) out of that byte's 24-bit window.
_PHASE_SHIFTS = np.arange(8, 0, -1, dtype=np.int64)


class _WindowTables:
    """One code table's window tables, in the form each decode kernel reads.

    ``sym`` / ``length`` are the shared read-only arrays of
    :func:`_decode_tables_cached`, which the row walk gathers from.  The
    scalar loop indexes :meth:`scalar`'s zero-copy memoryviews of the same
    arrays, whose items index as Python ints.  Python lists of the 64K-entry
    tables would cost ~2.5 ms to build per table and index no faster: over
    SZ2 quantization codes of the AlexNet tensors (600k symbols) the scalar
    loop took 318 ns/symbol with lists and 317 with memoryviews.
    """

    def __init__(self, length_table: bytes) -> None:
        self.length_table = length_table
        self.sym, self.length = _decode_tables_cached(length_table)

    def scalar(self) -> "tuple[Sequence[int], Sequence[int]]":
        return memoryview(self.sym), memoryview(self.length)


def _decode_band(bit_bytes: np.ndarray, bit_offsets: np.ndarray,
                 sym_counts: np.ndarray, chunk_ends: np.ndarray,
                 tables: _WindowTables) -> np.ndarray:
    """Decode one band of consecutive chunks; its width picks the kernel.

    Offsets are relative to ``bit_bytes``.  A band of at least
    :data:`_MIN_VECTOR_CHUNKS` chunks runs the vectorized row walk, a
    narrower one the scalar loop.
    """
    if bit_offsets.size >= _MIN_VECTOR_CHUNKS:
        return HuffmanCoder._decode_band_vectorized(
            bit_bytes, bit_offsets, sym_counts, chunk_ends, tables.sym, tables.length)
    out = np.empty(int(sym_counts.sum()), dtype=np.int64)
    sym_starts = np.concatenate([[0], np.cumsum(sym_counts)[:-1]])
    HuffmanCoder._decode_scalar(bit_bytes, bit_offsets, sym_counts, sym_starts,
                                chunk_ends, *tables.scalar(), out)
    return out


def _decode_band_task(task: "tuple[bytes, bytes, np.ndarray, np.ndarray, np.ndarray]") -> np.ndarray:
    """Decode one band of chunks from its slice of the packed bit stream.

    Module-level and fully self-contained so the banded decode can run on any
    :class:`~repro.utils.parallel.ExecutionBackend`, including a process pool:
    the task tuple ``(bit_slice, length_table, bit_offsets, sym_counts,
    chunk_ends)`` pickles cheaply (offsets are relative to the slice), and the
    decoded symbol band is *returned* instead of written into shared memory.
    The 64K-entry window tables come from the per-worker
    :func:`_decode_tables_cached` LRU, so a multi-band decode of one stream
    builds them once per worker instead of once per band.
    """
    bit_slice, length_table, bit_offsets, sym_counts, chunk_ends = task
    return _decode_band(np.frombuffer(bit_slice, dtype=np.uint8), bit_offsets,
                        sym_counts, chunk_ends, _WindowTables(length_table))


def _decode_chunks(bit_bytes: np.ndarray, bit_offsets: np.ndarray,
                   sym_counts: np.ndarray, chunk_ends: np.ndarray,
                   tables: _WindowTables, backend: ExecutionBackend,
                   max_workers: "int | None") -> np.ndarray:
    """Decode consecutive chunks (offsets relative to ``bit_bytes``).

    The worker count sets the number of bands, each at least
    :data:`_MIN_VECTOR_CHUNKS` chunks wide.  One band decodes in-process;
    several fan out over ``backend`` as :func:`_decode_band_task` units.  On
    a GIL-bound backend never split finer than the core count — a band's
    cost is dominated by its per-step dispatch overhead, so extra narrower
    bands only help while they actually run concurrently; a process pool's
    workers always do, so there the knob is honoured.
    """
    n_chunks = bit_offsets.size
    workers = backend.resolve_workers(max_workers, n_chunks)
    cap = workers if not backend.gil_bound else min(workers, os.cpu_count() or 1)
    n_bands = max(1, min(cap, n_chunks // _MIN_VECTOR_CHUNKS))
    if n_bands == 1:
        return _decode_band(bit_bytes, bit_offsets, sym_counts, chunk_ends, tables)
    edges = np.linspace(0, n_chunks, n_bands + 1).astype(int)
    tasks = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        # rebase the band onto its own byte slice so the task is a small,
        # self-contained (and cheaply picklable) unit of work
        byte0 = int(bit_offsets[lo]) >> 3
        byte_hi = (int(chunk_ends[hi - 1]) + 7) >> 3
        tasks.append((bit_bytes[byte0:byte_hi].tobytes(), tables.length_table,
                      bit_offsets[lo:hi] - (byte0 << 3), sym_counts[lo:hi],
                      chunk_ends[lo:hi] - (byte0 << 3)))
    return np.concatenate(backend.map(_decode_band_task, tasks,
                                      workers=workers, chunksize=1))


class ChunkBandConsumer:
    """Incremental decoder for v3 ``HUF3`` streams: feed bytes, get symbols.

    The per-chunk ``(bit_offset, symbol_count)`` index makes any *byte prefix*
    of the stream useful: chunk ``k`` is decodable as soon as the prefix covers
    the header plus ``ceil(chunk_end_bit(k) / 8)`` bytes of the packed bit
    stream.  This consumer exploits that to overlap decode time with arrival
    time (the paper's ``t_D`` hiding inside ``S'/B``): :meth:`feed` accepts
    stream bytes in any chunking — per simulated packet, per decompressor
    output burst, or all at once — parses the header progressively, and
    eagerly decodes every chunk whose bytes have fully arrived.  Bands of
    newly-ready chunks go through exactly the same scalar/vectorized decode
    kernels as :meth:`HuffmanCoder.decode`, so the symbols are bit-identical
    to a non-streaming decode at any worker count on any backend.

    The stream's CRC-32 covers the *entire* payload, so it can only be
    verified once the last byte arrives: :meth:`finish` checks it (and the
    declared total length) before releasing the symbol array.  Structural
    corruption that a prefix already proves — bad magic, inconsistent chunk
    geometry, a chunk that decodes past its recorded boundary, over-long
    streams — raises :class:`ValueError` from :meth:`feed` at the earliest
    byte that exposes it.  Callers must treat the symbols as tentative until
    :meth:`finish` returns.
    """

    def __init__(self, max_workers: int | None = 1,
                 backend: "str | ExecutionBackend" = "serial") -> None:
        self.backend = get_backend(backend)
        self.max_workers = max_workers
        self._buf = StreamBuffer()
        self._crc = 0
        self._crc_pos = _PREFIX_LEN  # next byte offset to fold into the CRC
        self._crc_stored: int | None = None
        self._header: "tuple | None" = None  # (lengths, bit_offsets, sym_counts, sym_starts, chunk_ends, count, bits_at)
        self._tables: "_WindowTables | None" = None
        self._out: "np.ndarray | None" = None
        self._next_chunk = 0
        self._finished: "np.ndarray | None" = None

    # -- public surface ------------------------------------------------
    @property
    def header_ready(self) -> bool:
        """True once the full header (code table + chunk index) has arrived."""
        return self._header is not None

    @property
    def chunks_total(self) -> "int | None":
        """Number of chunks in the stream (``None`` before the header)."""
        return self._header[1].size if self._header is not None else None

    @property
    def chunks_decoded(self) -> int:
        """Chunks decoded so far."""
        return self._next_chunk

    @property
    def symbols_decoded(self) -> int:
        """Symbols decoded so far (a prefix of the final array)."""
        if self._header is None or self._next_chunk == 0:
            return 0
        _, _, sym_counts, sym_starts, _, _, _ = self._header
        return int(sym_starts[self._next_chunk - 1] + sym_counts[self._next_chunk - 1])

    @property
    def bytes_received(self) -> int:
        """Stream bytes fed so far."""
        return self._buf.available

    def required_prefix(self, chunk: int) -> int:
        """Bytes of stream prefix sufficient to decode chunks ``0..chunk``.

        Only available once the header has arrived; this is the quantity the
        FORMATS.md streaming contract specifies.
        """
        if self._header is None:
            raise ValueError("header has not arrived yet")
        _, _, _, _, chunk_ends, count, bits_at = self._header
        if count == 0:
            return bits_at
        return bits_at + ((int(chunk_ends[chunk]) + 7) >> 3)

    def feed(self, data) -> int:
        """Consume arriving stream bytes; decodes every newly-complete chunk.

        Returns the number of symbols decoded so far.  Raises
        :class:`ValueError` on structurally corrupt input.
        """
        if self._finished is not None:
            raise ValueError("cannot feed a finished Huffman stream consumer")
        self._buf.feed(data)
        if self._header is None:
            self._try_parse_header()
        self._update_crc()
        if self._header is not None:
            self._decode_ready()
        return self.symbols_decoded

    def finish(self) -> np.ndarray:
        """Verify total length and CRC-32, then return the decoded symbols."""
        if self._finished is not None:
            return self._finished
        if self._header is None:
            raise _corrupt(f"stream truncated inside the header "
                           f"({self._buf.available} bytes arrived)")
        if not self._buf.complete:
            raise _corrupt(f"stream truncated: {self._buf.available} of "
                           f"{self._buf.expected} bytes arrived")
        self._update_crc()
        if self._crc != self._crc_stored:
            raise _corrupt("CRC-32 mismatch")
        self._decode_ready()
        lengths, bit_offsets, *_ = self._header
        if self._next_chunk != bit_offsets.size:
            raise _corrupt("stream ended before every chunk decoded")
        self._finished = self._out if self._out is not None \
            else np.zeros(0, dtype=np.int64)
        return self._finished

    # -- internals -----------------------------------------------------
    def _update_crc(self) -> None:
        if self._crc_pos < self._buf.available:
            self._crc = zlib.crc32(self._buf.view(self._crc_pos), self._crc)
            self._crc_pos = self._buf.available

    def _try_parse_header(self) -> None:
        """Parse the fixed header, code table, and chunk index once present.

        Runs the same structural validation as
        :meth:`HuffmanCoder._parse_header` — everything except the CRC, which
        needs the whole stream and is deferred to :meth:`finish`.
        """
        buf = self._buf
        fixed = _PREFIX_LEN + _HEADER.size
        if not buf.has(fixed):
            return
        if bytes(buf.view(0, 4)) != _MAGIC:
            raise _corrupt("bad magic (not a version-3 Huffman stream)")
        (self._crc_stored,) = struct.unpack("<I", buf.view(4, _PREFIX_LEN))
        alphabet, count, chunk_size, n_chunks = _HEADER.unpack(buf.view(fixed - _HEADER.size, fixed))
        offset = fixed
        if not buf.has(alphabet + 16 * n_chunks + 8, offset):
            return
        lengths = np.frombuffer(buf.view(offset, offset + alphabet),
                                dtype=np.uint8).astype(np.int64)
        offset += alphabet
        index = np.frombuffer(buf.view(offset, offset + 16 * n_chunks),
                              dtype="<u8").reshape(n_chunks, 2).astype(np.int64)
        offset += 16 * n_chunks
        (total_bits,) = struct.unpack("<Q", buf.view(offset, offset + 8))
        offset += 8

        if count == 0:
            if n_chunks != 0 or total_bits != 0:
                raise _corrupt("empty stream declares chunks or bits")
        else:
            if chunk_size < 1 or n_chunks != -(-count // chunk_size):
                raise _corrupt(f"{n_chunks} chunks cannot cover {count} symbols "
                               f"at {chunk_size} symbols per chunk")
            sym_counts = index[:, 1]
            expected = np.full(n_chunks, chunk_size, dtype=np.int64)
            expected[-1] = count - (n_chunks - 1) * chunk_size
            if not np.array_equal(sym_counts, expected):
                raise _corrupt("chunk symbol counts disagree with the stream length")
            bit_offsets = index[:, 0]
            spans = np.diff(np.concatenate([bit_offsets, [total_bits]]))
            if bit_offsets[0] != 0 or np.any(spans < sym_counts) or \
                    np.any(spans > sym_counts * MAX_CODE_LENGTH):
                raise _corrupt("chunk bit offsets are inconsistent with their symbol counts")

        bit_offsets = index[:, 0]
        sym_counts = index[:, 1]
        sym_starts = np.concatenate([[0], np.cumsum(sym_counts)[:-1]]) \
            if n_chunks else np.zeros(0, dtype=np.int64)
        chunk_ends = np.concatenate([bit_offsets[1:], [total_bits]]) \
            if n_chunks else np.zeros(0, dtype=np.int64)
        # from here on the total stream length is pinned; over-feeding raises
        self._buf.expect(offset + (total_bits + 7) // 8)
        self._header = (lengths, bit_offsets, sym_counts, sym_starts,
                        chunk_ends, count, offset)
        if count:
            self._tables = _WindowTables(lengths.astype(np.uint8).tobytes())
            self._out = np.empty(count, dtype=np.int64)

    def _ready_chunks(self) -> int:
        """Index one past the last chunk whose bytes have fully arrived."""
        _, _, _, _, chunk_ends, count, bits_at = self._header
        if count == 0:
            return 0
        avail_bits = (self._buf.available - bits_at) << 3
        # chunk k is ready when ceil(chunk_ends[k] / 8) bytes arrived, i.e.
        # chunk_ends[k] <= available whole bits
        return int(np.searchsorted(chunk_ends, avail_bits, side="right"))

    def _decode_ready(self) -> None:
        """Eagerly decode every chunk whose bytes have arrived."""
        lo, hi = self._next_chunk, self._ready_chunks()
        if hi <= lo:
            return
        _, bit_offsets, sym_counts, sym_starts, chunk_ends, _, bits_at = self._header
        # rebase the ready chunks onto their zero-copy window of the buffer
        # and decode them exactly like the non-streaming decode would
        byte0 = int(bit_offsets[lo]) >> 3
        byte_hi = (int(chunk_ends[hi - 1]) + 7) >> 3
        bit_bytes = np.frombuffer(self._buf.view(bits_at + byte0, bits_at + byte_hi),
                                  dtype=np.uint8)
        decoded = _decode_chunks(bit_bytes, bit_offsets[lo:hi] - (byte0 << 3),
                                 sym_counts[lo:hi], chunk_ends[lo:hi] - (byte0 << 3),
                                 self._tables, self.backend, self.max_workers)
        base = int(sym_starts[lo])
        self._out[base:base + decoded.size] = decoded
        self._next_chunk = hi


#: Bytes of bit-packing scratch per coded symbol: the gathered ``codes``, the
#: running bit ``ends`` (reused as the shifts), ``first_word``, ``word`` and
#: the ``placed`` codes (8 each), plus the word-change mask (1) of
#: :func:`_pack_words`.
_EMIT_SCRATCH_PER_SYMBOL = 41


def _pack_words(codes: np.ndarray, lengths: np.ndarray,
                lead: int, lead_bits: int) -> np.ndarray:
    """Pack codes MSB-first into ``uint64`` words (native byte order).

    ``lead`` holds ``lead_bits`` (< 8) bits that precede the first code.
    Each code lands at its cumulative bit offset: the bits that fall in the
    word holding the code's last bit are shifted into place, and all codes
    ending in one word are OR-ed together by one
    :func:`numpy.bitwise_or.reduceat`.  A code that spans a word boundary
    also ORs its high bits into the previous word (at most one code spans
    each boundary).  Codes are at most :data:`MAX_CODE_LENGTH` < 64 bits, so
    every word holds some code's last bit and the reduction yields them all.
    """
    ends = np.cumsum(lengths)
    ends += lead_bits
    first_word = ends - lengths
    first_word >>= 6
    ends -= 1                        # each code's last bit
    word = ends >> 6
    ends &= 63
    np.subtract(63, ends, out=ends)  # left shift that puts the last bit in place
    shift = ends.view(np.uint64)
    placed = codes << shift
    heads = np.flatnonzero(word[1:] != word[:-1])
    heads += 1
    words = np.bitwise_or.reduceat(placed, np.concatenate(([0], heads)))
    spans = np.flatnonzero(first_word != word)
    words[word[spans] - 1] |= codes[spans] >> (np.uint64(64) - shift[spans])
    if lead_bits:
        words[0] |= np.uint64(lead << (64 - lead_bits))
    return words


class ChunkBandProducer:
    """Incremental encoder for v3 ``HUF3`` streams: the twin of
    :class:`ChunkBandConsumer`.

    The encoder has every symbol in memory before the first bit is packed, so
    after one cheap symbol pass (histogram, code lengths, canonical codes,
    chunk geometry) the *entire* header — code-length table, per-chunk
    ``(bit_offset, symbol_count)`` index, and total bit count — is pinned:
    :attr:`pinned_header` and :attr:`stream_length` are available before any
    band exists.  :meth:`bands` then emits each chunk's packed code bits the
    moment that chunk's symbols are coded, in chunk order, cut at byte
    boundaries so the concatenated bands are the stream's packed bit stream.

    Codes are packed in groups of whole chunks of about :data:`_BLOCK`
    symbols (:func:`_pack_words`), which amortizes NumPy's per-call cost over
    small chunks and bounds the packing scratch to one group:
    :attr:`peak_scratch_bytes` reports the analytic high-water mark, which is
    what the round engine surfaces as encode scratch.

    The one field that cannot be pinned early is the stream CRC-32 at byte
    offset 4: it covers the packed bands, so :meth:`magic_and_crc` only
    becomes available once :meth:`bands` is exhausted.  Consumers that need
    the stream in byte order therefore stage bands until the prefix is
    released — :meth:`chunks` does exactly that and yields the byte-order
    stream (prefix, pinned header, then each band), whose concatenation
    equals :meth:`HuffmanCoder.encode` for the same ``chunk_size``.  See the
    producer-side framing contract in FORMATS.md.
    """

    def __init__(self, symbols: np.ndarray,
                 chunk_size: int = DEFAULT_CHUNK_SYMBOLS,
                 lengths: "np.ndarray | None" = None) -> None:
        if not 1 <= chunk_size <= 0xFFFFFFFF:
            raise ValueError("chunk_size must be in [1, 2**32 - 1] (stored as u32)")
        symbols = np.ascontiguousarray(symbols).ravel()
        if symbols.size and symbols.min() < 0:
            raise ValueError("Huffman symbols must be non-negative")
        self._count = count = symbols.size
        self._crc: "int | None" = None
        self._bands_done = count == 0
        if count == 0:
            self.n_chunks = 0
            self.code_lengths: "bytes | None" = None
            self.pinned_header = _HEADER.pack(0, 0, chunk_size, 0) + \
                struct.pack("<Q", 0)
            self._crc = zlib.crc32(self.pinned_header)
            self.stream_length = _PREFIX_LEN + len(self.pinned_header)
            self.peak_scratch_bytes = 0
            return
        self._symbols = symbols = symbols.astype(np.int64, copy=False)
        pinned = lengths is not None
        if pinned:
            # a pinned table from a previous build (warm codebook reuse);
            # it must cover the whole alphabet — an uncovered symbol would
            # produce an undecodable stream, so fail loudly here
            lengths = np.asarray(lengths, dtype=np.int64)
            alphabet = lengths.size
            if alphabet == 0 or int(symbols.max()) >= alphabet:
                raise ValueError("pinned code-length table does not cover the "
                                 "symbol alphabet")
            if int(lengths.max()) > MAX_CODE_LENGTH:
                raise ValueError(f"pinned code length exceeds {MAX_CODE_LENGTH}")
        else:
            alphabet = int(symbols.max()) + 1
            freqs = np.bincount(symbols, minlength=alphabet)
            lengths = _build_code_lengths(freqs)
        self._codes = _canonical_codes(lengths).astype(np.uint64)
        self._sym_lengths = lengths[symbols]
        if pinned and int(self._sym_lengths.min()) == 0:
            raise ValueError("pinned code-length table assigns no code to a "
                             "present symbol")
        bit_ends = np.cumsum(self._sym_lengths)
        total_bits = int(bit_ends[-1])

        chunk = min(chunk_size, max(_MIN_CHUNK_SYMBOLS, count // _TARGET_CHUNKS))
        self._starts = starts = np.arange(0, count, chunk, dtype=np.int64)
        self.n_chunks = starts.size
        self._offsets = offsets = np.zeros(starts.size, dtype=np.int64)
        offsets[1:] = bit_ends[starts[1:] - 1]
        index = np.empty((starts.size, 2), dtype="<u8")
        index[:, 0] = offsets
        index[:, 1] = np.minimum(chunk, count - starts).astype(np.uint64)

        self.code_lengths = lengths.astype(np.uint8).tobytes()
        header = bytearray(_HEADER.size + alphabet + 16 * starts.size + 8)
        _HEADER.pack_into(header, 0, alphabet, count, chunk, starts.size)
        pos = _HEADER.size
        header[pos:pos + alphabet] = self.code_lengths
        pos += alphabet
        header[pos:pos + 16 * starts.size] = index.tobytes()
        pos += 16 * starts.size
        struct.pack_into("<Q", header, pos, total_bits)
        self.pinned_header = bytes(header)
        self._total_bits = total_bits
        self.stream_length = _PREFIX_LEN + len(self.pinned_header) + \
            (total_bits + 7) // 8
        self._group = max(1, _BLOCK // chunk)  # chunks packed per pass
        widest = min(self._group * chunk, count)
        self.peak_scratch_bytes = widest * _EMIT_SCRATCH_PER_SYMBOL

    def bands(self):
        """Yield each chunk's packed code bits the moment the chunk is coded.

        Bands are cut at byte boundaries (leftover bits carry into the next
        band; the final band is zero-padded), so their concatenation equals
        the batch encoder's packed bit stream byte for byte.  The running
        CRC-32 folds each band in as it is packed; :meth:`magic_and_crc`
        unlocks when the generator is exhausted.
        """
        if self._count == 0:
            return
        crc = zlib.crc32(self.pinned_header)
        n_chunks, offsets = self.n_chunks, self._offsets
        # band k ends at the last whole byte of chunk k; the final band at
        # the stream's last (zero-padded) byte
        cuts = np.append(offsets[1:] >> 3, (self._total_bits + 7) >> 3)
        tail = emitted = 0
        for g0 in range(0, n_chunks, self._group):
            g1 = min(g0 + self._group, n_chunks)
            s0 = int(self._starts[g0])
            s1 = int(self._starts[g1]) if g1 < n_chunks else self._count
            # the group starts at the byte holding its first bit; the bits of
            # that byte the previous group already coded lead the first code
            byte0, lead_bits = int(offsets[g0]) >> 3, int(offsets[g0]) & 7
            words = _pack_words(self._codes[self._symbols[s0:s1]],
                                self._sym_lengths[s0:s1],
                                tail >> (8 - lead_bits), lead_bits)
            packed = words.byteswap(inplace=True).view(np.uint8)
            pos = 0
            for k in range(g0, g1):
                end = int(cuts[k]) - byte0
                band = packed[pos:end].tobytes()
                pos = end
                emitted += len(band)
                crc = zlib.crc32(band, crc)
                self._crc = crc
                yield band
            tail = int(packed[pos]) if pos < packed.size else 0
        if emitted != (self._total_bits + 7) >> 3:
            raise RuntimeError("producer emitted a different byte count than "
                               "the pinned index declares")
        self._bands_done = True

    def magic_and_crc(self) -> bytes:
        """The 8-byte stream prefix (magic + CRC-32 of everything after it).

        The CRC covers the packed bands, so this is only available once
        :meth:`bands` has been exhausted (immediately for an empty stream).
        """
        if not self._bands_done:
            raise ValueError("the HUF3 CRC covers the packed bands; drain "
                             "bands() before reading the stream prefix")
        return _MAGIC + struct.pack("<I", self._crc)

    def chunks(self):
        """Byte-order view of the stream: prefix, pinned header, then bands.

        Because the CRC at offset 4 is pinned last, bands are staged
        internally until packing completes; the staging high-water mark is
        the packed bit stream itself, never the emission scratch.  The
        concatenation of the yielded pieces is byte-identical to
        :meth:`HuffmanCoder.encode` at the same ``chunk_size``.
        """
        staged = list(self.bands())
        yield self.magic_and_crc()
        yield self.pinned_header
        while staged:
            yield staged.pop(0)


class HuffmanCoder:
    """Encode/decode streams of non-negative integer symbols.

    ``chunk_size`` caps the number of symbols per chunk (the encoder may pick
    smaller chunks for short streams, see :data:`_TARGET_CHUNKS`).
    ``max_workers`` is the default decode concurrency: it sets the number of
    bands (``1`` decodes the stream as one band in-process, ``None`` takes
    the backend default), and each band's width picks its kernel — the
    vectorized row walk for bands of at least :data:`_MIN_VECTOR_CHUNKS`
    chunks, the scalar loop for narrower ones.  ``backend`` names the
    :class:`~repro.utils.parallel.ExecutionBackend` the bands are dispatched
    on (``"serial"`` always decodes one band).  Every combination produces
    bit-identical symbol arrays; instances are stateless per call,
    thread-safe, and picklable.
    """

    def __init__(self, chunk_size: int = DEFAULT_CHUNK_SYMBOLS,
                 max_workers: int | None = 1,
                 backend: "str | ExecutionBackend" = "thread") -> None:
        if not 1 <= chunk_size <= 0xFFFFFFFF:
            raise ValueError("chunk_size must be in [1, 2**32 - 1] (stored as u32)")
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.chunk_size = int(chunk_size)
        self.max_workers = max_workers
        self.backend = get_backend(backend)

    # ------------------------------------------------------------------
    def _effective_chunk(self, count: int) -> int:
        """Symbols per chunk for a ``count``-symbol stream (never above the cap)."""
        return min(self.chunk_size, max(_MIN_CHUNK_SYMBOLS, count // _TARGET_CHUNKS))

    def encode(self, symbols: np.ndarray,
               lengths: "np.ndarray | None" = None) -> bytes:
        """Encode ``symbols`` (any integer dtype, values >= 0) to bytes.

        The stream is assembled band by band through
        :class:`ChunkBandProducer` into one preallocated buffer: packing a
        group of chunks at a time bounds the packing scratch to one group
        instead of the whole stream, and the single output buffer replaces
        the former chain of intermediate ``bytes`` concatenations.
        ``lengths`` optionally pins a code-length table from a previous build
        (warm codebook reuse), skipping the histogram + tree construction.
        """
        return self.assemble(ChunkBandProducer(symbols, self.chunk_size,
                                               lengths=lengths))

    @staticmethod
    def assemble(producer: ChunkBandProducer) -> bytes:
        """Drain ``producer`` into one contiguous stream buffer."""
        out = bytearray(producer.stream_length)
        pos = _PREFIX_LEN + len(producer.pinned_header)
        out[_PREFIX_LEN:pos] = producer.pinned_header
        for band in producer.bands():
            out[pos:pos + len(band)] = band
            pos += len(band)
        out[:_PREFIX_LEN] = producer.magic_and_crc()
        return bytes(out)

    def stream_producer(self, symbols: np.ndarray,
                        lengths: "np.ndarray | None" = None) -> ChunkBandProducer:
        """Return a :class:`ChunkBandProducer` over ``symbols``.

        The producer uses this coder's ``chunk_size``, so its byte-order
        stream (:meth:`ChunkBandProducer.chunks`) concatenates to exactly
        what :meth:`encode` returns.  ``lengths`` optionally pins a
        code-length table exactly as in :meth:`encode`.
        """
        return ChunkBandProducer(symbols, self.chunk_size, lengths=lengths)

    def stream_consumer(self, max_workers: int | None = None,
                        backend: "str | ExecutionBackend | None" = None
                        ) -> ChunkBandConsumer:
        """Return a :class:`ChunkBandConsumer` for incremental decoding.

        ``max_workers`` / ``backend`` default to this coder's configuration,
        matching what :meth:`decode` would use, so a streaming decode is
        bit-identical to the batch path under the same settings.
        """
        return ChunkBandConsumer(
            max_workers=self.max_workers if max_workers is None else max_workers,
            backend=self.backend if backend is None else backend)

    # ------------------------------------------------------------------
    def _parse_header(self, payload: bytes):
        """Validate the v3 container and return its parsed fields.

        Every declared length is bounds-checked against the remaining buffer
        (truncation can never surface as ``struct.error`` or ``IndexError``)
        and the CRC covers everything after itself, so any byte flip in the
        payload is detected here.
        """
        _require(payload, 0, _PREFIX_LEN + _HEADER.size, "header")
        if payload[:4] != _MAGIC:
            raise _corrupt("bad magic (not a version-3 Huffman stream)")
        (crc_stored,) = struct.unpack_from("<I", payload, 4)
        if zlib.crc32(memoryview(payload)[_PREFIX_LEN:]) != crc_stored:
            raise _corrupt("CRC-32 mismatch")
        alphabet, count, chunk_size, n_chunks = _HEADER.unpack_from(payload, _PREFIX_LEN)
        offset = _PREFIX_LEN + _HEADER.size

        _require(payload, offset, alphabet, "code-length table")
        lengths = np.frombuffer(payload, dtype=np.uint8, count=alphabet,
                                offset=offset).astype(np.int64)
        offset += alphabet

        _require(payload, offset, 16 * n_chunks, "chunk index")
        index = np.frombuffer(payload, dtype="<u8", count=2 * n_chunks,
                              offset=offset).reshape(n_chunks, 2).astype(np.int64)
        offset += 16 * n_chunks

        _require(payload, offset, 8, "total bit count")
        (total_bits,) = struct.unpack_from("<Q", payload, offset)
        offset += 8
        if len(payload) - offset != (total_bits + 7) // 8:
            raise _corrupt(f"bit stream holds {len(payload) - offset} bytes but "
                           f"{total_bits} bits are declared")

        if count == 0:
            if n_chunks != 0 or total_bits != 0:
                raise _corrupt("empty stream declares chunks or bits")
            return lengths, index, 0, 0, offset
        if chunk_size < 1 or n_chunks != -(-count // chunk_size):
            raise _corrupt(f"{n_chunks} chunks cannot cover {count} symbols "
                           f"at {chunk_size} symbols per chunk")
        sym_counts = index[:, 1]
        expected = np.full(n_chunks, chunk_size, dtype=np.int64)
        expected[-1] = count - (n_chunks - 1) * chunk_size
        if not np.array_equal(sym_counts, expected):
            raise _corrupt("chunk symbol counts disagree with the stream length")
        bit_offsets = index[:, 0]
        spans = np.diff(np.concatenate([bit_offsets, [total_bits]]))
        if bit_offsets[0] != 0 or np.any(spans < sym_counts) or \
                np.any(spans > sym_counts * MAX_CODE_LENGTH):
            raise _corrupt("chunk bit offsets are inconsistent with their symbol counts")
        return lengths, index, count, total_bits, offset

    def decode(self, payload: bytes, max_workers: int | None = None,
               backend: "str | ExecutionBackend | None" = None) -> np.ndarray:
        """Decode a byte string produced by :meth:`encode` back to ``int64``.

        ``max_workers`` and ``backend`` override the instance defaults for
        this call.  Workers set the number of bands, band width picks the
        kernel; the output is identical either way.
        """
        lengths, index, count, total_bits, bits_at = self._parse_header(payload)
        if count == 0:
            return np.zeros(0, dtype=np.int64)
        bit_offsets = index[:, 0]
        chunk_ends = np.concatenate([bit_offsets[1:], [total_bits]])
        return _decode_chunks(np.frombuffer(payload, dtype=np.uint8, offset=bits_at),
                              bit_offsets, index[:, 1], chunk_ends,
                              _WindowTables(lengths.astype(np.uint8).tobytes()),
                              self.backend if backend is None else get_backend(backend),
                              self.max_workers if max_workers is None else max_workers)

    # ------------------------------------------------------------------
    @staticmethod
    def _decode_scalar(bit_bytes: np.ndarray, bit_offsets: np.ndarray,
                       sym_counts: np.ndarray, sym_starts: np.ndarray,
                       chunk_ends: np.ndarray, tbl_sym: "Sequence[int]",
                       tbl_len: "Sequence[int]", out: np.ndarray) -> None:
        """Sequential per-symbol decoder: the kernel for narrow bands and the
        tests' reference.  ``tbl_sym`` / ``tbl_len`` are the window tables as
        Python-int sequences (:meth:`_WindowTables.scalar`).
        """
        w24 = _byte_windows(bit_bytes, 3)
        for c in range(bit_offsets.size):
            start, end = int(bit_offsets[c]), int(chunk_ends[c])
            n_syms = int(sym_counts[c])
            byte0 = start >> 3
            local = w24[byte0:((end - 1) >> 3) + 2].tolist()
            pos = start - (byte0 << 3)
            rel_end = end - (byte0 << 3)
            decoded = [0] * n_syms
            for i in range(n_syms):
                if pos >= rel_end:
                    raise _corrupt("chunk decoded past its recorded boundary")
                window = (local[pos >> 3] >> (8 - (pos & 7))) & 0xFFFF
                length = tbl_len[window]
                if length == 0:
                    raise _corrupt("bit window matches no codeword")
                decoded[i] = tbl_sym[window]
                pos += length
            if pos != rel_end:
                raise _corrupt("chunk did not decode to its recorded boundary")
            base = int(sym_starts[c])
            out[base:base + n_syms] = decoded

    @staticmethod
    def _decode_band_vectorized(bit_bytes: np.ndarray, bit_offsets: np.ndarray,
                                sym_counts: np.ndarray, chunk_ends: np.ndarray,
                                table_sym: np.ndarray, table_len: np.ndarray
                                ) -> np.ndarray:
        """Decode one band of chunks as a vectorized row walk.

        One pass over the band's bytes tabulates the code length starting at
        every bit position.  The walk then advances all chunk cursors by one
        symbol per step with two NumPy calls (gather the lengths under the
        cursors, add) and records every cursor.  Last, the symbols are looked
        up from the recorded cursors' windows, written chunk-major.

        Every chunk but the band's last holds ``sym_counts.max()`` symbols
        (the header validation guarantees it); the short last chunk keeps
        walking harmlessly and its surplus is cut off.  A window that is no
        codeword has length 0 and symbol -1: its cursor stalls, and either the
        boundary check or the -1 raises.  Gathers clip, so a cursor that a
        corrupt stream drives past the band stays in bounds.
        """
        width = bit_offsets.size
        steps = int(sym_counts.max())
        w24 = _byte_windows(bit_bytes, 2)
        lens = np.empty((w24.size, 8), dtype=np.uint8)
        for b0 in range(0, w24.size, _BLOCK):
            windows = (w24[b0:b0 + _BLOCK, None] >> _PHASE_SHIFTS) & 0xFFFF
            table_len.take(windows, out=lens[b0:b0 + _BLOCK])
        take, add = lens.ravel().take, np.add
        cursors = np.empty((steps + 1, width), dtype=np.int64)
        cursors[0] = bit_offsets
        step_lens = np.empty(width, dtype=np.uint8)
        for step in range(steps):
            row = cursors[step]
            take(row, out=step_lens, mode="clip")
            add(row, step_lens, out=cursors[step + 1])
        if not np.array_equal(cursors[sym_counts, np.arange(width)], chunk_ends):
            raise _corrupt("chunk did not decode to its recorded boundary")
        out = np.empty((width, steps), dtype=np.int64)
        rows = max(1, _BLOCK // width)
        for s0 in range(0, steps, rows):
            pos = cursors[s0:min(s0 + rows, steps)]
            windows = w24.take(pos >> 3, mode="clip")
            shift = pos & 7
            np.subtract(8, shift, out=shift)
            windows >>= shift
            windows &= 0xFFFF
            out[:, s0:s0 + rows] = table_sym.take(windows).T
        out = out.ravel()[:int(sym_counts.sum())]
        if out.min() < 0:
            raise _corrupt("bit window matches no codeword")
        return out
