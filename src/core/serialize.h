// Flat binary serialization of compressed columns.
//
// A CompressedColumn round-trips through a self-contained byte buffer so
// compressed data can live in files, buffer pools, or network messages. The
// format keeps the paper's discipline: part payloads are written as raw
// little-endian column bytes with a minimal structural envelope, no
// per-block headers inside the payloads.
//
// v1 layout — one whole-column envelope (all integers little-endian):
//   magic "RCMP", u16 version = 1, then the root node:
//     node   := descriptor-string (u32 len + bytes, children omitted)
//               u64 n, u8 out_type, u32 part_count, part*
//     part   := u32 name_len + name, u8 tag (0 terminal | 1 sub),
//               tag 0: column; tag 1: node
//     column := u8 kind (0 plain | 1 packed),
//               plain:  u8 type, u64 rows, payload bytes
//               packed: u8 logical_type, u16 bit_width, u64 rows,
//                       u64 byte_count, payload bytes
//
// v2 layout — a chunked envelope: a chunk directory followed by one v1 node
// payload per chunk. The directory carries each chunk's zone map and byte
// length, so a reader can prune or seek to a single chunk without parsing
// the others (the hook for parallel chunk scans):
//   magic "RCMP", u16 version = 2,
//   u8 out_type, u64 total_rows, u32 chunk_count,
//   chunk_count * { u64 row_begin, u64 row_count,
//                   u8 has_minmax, u64 min, u64 max, u64 node_bytes },
//   chunk_count * node            (exactly the v1 node encoding)
//
// Deserialization validates structure (magic, version, types, sizes) and
// returns Corruption on any inconsistency; it never trusts lengths without
// bounds checks. The v2 chunk directory is validated whole before any chunk
// payload is parsed: chunks must tile [0, total_rows) contiguously in order
// (no overlaps, no gaps), an empty directory cannot claim rows, and the
// node_bytes lengths must fit inside the buffer — so a parallel reader can
// trust directory offsets without re-deriving them. DeserializeChunked
// accepts both versions, wrapping a v1 buffer as a single chunk. Like the
// raw part payloads, zone-map min/max are trusted metadata: the format
// carries no checksums, so undetectably flipped *content* bytes (v1 column
// data, v2 zone bounds) produce wrong query results rather than Corruption
// — store buffers with integrity protection if the medium can corrupt
// them.

#ifndef RECOMP_CORE_SERIALIZE_H_
#define RECOMP_CORE_SERIALIZE_H_

#include <cstdint>
#include <vector>

#include "core/chunked.h"
#include "core/compressed.h"
#include "util/result.h"

namespace recomp {

/// Wire version written for whole-column envelopes.
inline constexpr uint16_t kSerializedVersion = 1;

/// Wire version written for chunked envelopes.
inline constexpr uint16_t kSerializedVersionChunked = 2;

/// Serializes the whole-column envelope into a self-contained v1 buffer.
Result<std::vector<uint8_t>> Serialize(const CompressedColumn& compressed);

/// Serializes the chunked envelope (directory + per-chunk payloads) into a
/// self-contained v2 buffer.
Result<std::vector<uint8_t>> Serialize(const ChunkedCompressedColumn& chunked);

/// Parses a v1 buffer produced by Serialize(CompressedColumn). The result
/// decompresses to the original column; structural damage yields Corruption,
/// never UB.
Result<CompressedColumn> Deserialize(const std::vector<uint8_t>& buffer);

/// Parses either wire version: a v2 chunked buffer with its zone maps, or a
/// v1 whole-column buffer wrapped as one chunk (count-only zone map). The v2
/// chunk directory is validated sequentially up front; the per-chunk payload
/// parses are independent after that (each chunk's offset and length come
/// from the validated directory), so `ctx` fans them out over its pool. The
/// result — including which error is reported for a corrupt buffer — is
/// identical for any thread count.
Result<ChunkedCompressedColumn> DeserializeChunked(
    const std::vector<uint8_t>& buffer, const ExecContext& ctx = {});

/// Exact size Serialize will produce (envelope + payloads), for buffer
/// planning and footprint accounting that includes metadata.
uint64_t SerializedSize(const CompressedColumn& compressed);

/// Exact size of the v2 buffer Serialize(ChunkedCompressedColumn) produces.
uint64_t SerializedSize(const ChunkedCompressedColumn& chunked);

}  // namespace recomp

#endif  // RECOMP_CORE_SERIALIZE_H_
