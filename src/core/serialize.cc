#include "core/serialize.h"

#include <cstring>

#include "obs/metrics.h"
#include "schemes/scheme_internal.h"
#include "util/string_util.h"

namespace recomp {

namespace {

constexpr char kMagic[4] = {'R', 'C', 'M', 'P'};

/// Envelope traffic counters; `chunks` counts only the chunked format's
/// directory entries (a whole-column buffer is one envelope, zero entries).
void CountSerialized(const char* direction, uint64_t bytes, uint64_t chunks) {
  if (!obs::Enabled()) return;
  obs::Registry& registry = obs::Registry::Get();
  registry.GetCounter(std::string("serialize.bytes_") + direction).Add(bytes);
  registry.GetCounter(std::string("serialize.envelopes_") + direction)
      .Increment();
  if (chunks > 0) {
    registry.GetCounter(std::string("serialize.chunks_") + direction)
        .Add(chunks);
  }
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

class Writer {
 public:
  explicit Writer(std::vector<uint8_t>* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(v); }
  void U16(uint16_t v) { Raw(&v, 2); }
  void U32(uint32_t v) { Raw(&v, 4); }
  void U64(uint64_t v) { Raw(&v, 8); }

  void Raw(const void* data, size_t bytes) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    out_->insert(out_->end(), p, p + bytes);
  }

  void String(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }

 private:
  std::vector<uint8_t>* out_;
};

void WriteColumn(Writer& w, const AnyColumn& column) {
  if (column.is_packed()) {
    const PackedColumn& packed = column.packed();
    w.U8(1);
    w.U8(static_cast<uint8_t>(packed.logical_type));
    w.U16(static_cast<uint16_t>(packed.bit_width));
    w.U64(packed.n);
    w.U64(packed.bytes.size());
    w.Raw(packed.bytes.data(), packed.bytes.size());
    return;
  }
  w.U8(0);
  w.U8(static_cast<uint8_t>(column.type()));
  w.U64(column.size());
  column.VisitPlain([&](const auto& col) {
    w.Raw(col.data(), col.size() * sizeof(typename std::decay_t<
                                          decltype(col)>::value_type));
  });
}

void WriteNode(Writer& w, const CompressedNode& node) {
  w.String(node.scheme.ToString());
  w.U64(node.n);
  w.U8(static_cast<uint8_t>(node.out_type));
  w.U32(static_cast<uint32_t>(node.parts.size()));
  for (const auto& [name, part] : node.parts) {
    w.String(name);
    if (part.is_terminal()) {
      w.U8(0);
      WriteColumn(w, *part.column);
    } else {
      w.U8(1);
      WriteNode(w, *part.sub);
    }
  }
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// Bounds-checked cursor over a byte range. Constructible from a sub-range
/// so independent chunk payloads can be parsed by independent readers (the
/// parallel-deserialization unit).
class Reader {
 public:
  explicit Reader(const std::vector<uint8_t>& in)
      : Reader(in.data(), in.size()) {}
  Reader(const uint8_t* data, uint64_t size) : data_(data), size_(size) {}

  Result<uint8_t> U8() {
    RECOMP_RETURN_NOT_OK(Need(1));
    return data_[pos_++];
  }
  Result<uint16_t> U16() { return Fixed<uint16_t>(); }
  Result<uint32_t> U32() { return Fixed<uint32_t>(); }
  Result<uint64_t> U64() { return Fixed<uint64_t>(); }

  Result<std::string> String() {
    RECOMP_ASSIGN_OR_RETURN(uint32_t len, U32());
    RECOMP_RETURN_NOT_OK(Need(len));
    std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return s;
  }

  Status ReadRaw(void* out, uint64_t bytes) {
    RECOMP_RETURN_NOT_OK(Need(bytes));
    // An empty column's data() may be null, which memcpy must not see.
    if (bytes > 0) std::memcpy(out, data_ + pos_, bytes);
    pos_ += bytes;
    return Status::OK();
  }

  bool AtEnd() const { return pos_ == size_; }

  uint64_t Position() const { return pos_; }

  Status Need(uint64_t bytes) const {
    if (size_ - pos_ < bytes) {
      return Status::Corruption(StringFormat(
          "buffer truncated: need %llu bytes at offset %zu",
          static_cast<unsigned long long>(bytes), static_cast<size_t>(pos_)));
    }
    return Status::OK();
  }

 private:
  template <typename T>
  Result<T> Fixed() {
    RECOMP_RETURN_NOT_OK(Need(sizeof(T)));
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  const uint8_t* data_;
  uint64_t size_;
  uint64_t pos_ = 0;
};

Result<TypeId> ReadTypeId(Reader& r) {
  RECOMP_ASSIGN_OR_RETURN(uint8_t raw, r.U8());
  if (raw >= kNumTypeIds) {
    return Status::Corruption(StringFormat("unknown type id %u", raw));
  }
  return static_cast<TypeId>(raw);
}

Result<AnyColumn> ReadColumn(Reader& r) {
  RECOMP_ASSIGN_OR_RETURN(uint8_t kind, r.U8());
  if (kind == 1) {
    PackedColumn packed;
    RECOMP_ASSIGN_OR_RETURN(packed.logical_type, ReadTypeId(r));
    RECOMP_ASSIGN_OR_RETURN(uint16_t width, r.U16());
    if (width > 64) {
      return Status::Corruption("packed width exceeds 64 bits");
    }
    packed.bit_width = width;
    RECOMP_ASSIGN_OR_RETURN(packed.n, r.U64());
    if (packed.n > kMaxClaimedRows) {
      return Status::Corruption("implausible row count");
    }
    RECOMP_ASSIGN_OR_RETURN(uint64_t byte_count, r.U64());
    RECOMP_RETURN_NOT_OK(r.Need(byte_count));
    packed.bytes.resize(byte_count);
    RECOMP_RETURN_NOT_OK(r.ReadRaw(packed.bytes.data(), byte_count));
    return AnyColumn(std::move(packed));
  }
  if (kind != 0) {
    return Status::Corruption("unknown column kind tag");
  }
  RECOMP_ASSIGN_OR_RETURN(TypeId type, ReadTypeId(r));
  RECOMP_ASSIGN_OR_RETURN(uint64_t rows, r.U64());
  if (rows > kMaxClaimedRows) {
    // Reject before any multiplication can wrap or any allocation is tried.
    return Status::Corruption("implausible row count");
  }
  return internal::DispatchAnyTypeId(type, [&](auto tag) -> Result<AnyColumn> {
    using T = typename decltype(tag)::type;
    const uint64_t bytes = rows * sizeof(T);
    RECOMP_RETURN_NOT_OK(r.Need(bytes));
    Column<T> col(rows);
    RECOMP_RETURN_NOT_OK(r.ReadRaw(col.data(), bytes));
    return AnyColumn(std::move(col));
  });
}

Result<CompressedNode> ReadNode(Reader& r, int depth) {
  if (depth > 64) {
    return Status::Corruption("envelope nesting exceeds 64 levels");
  }
  CompressedNode node;
  RECOMP_ASSIGN_OR_RETURN(std::string descriptor, r.String());
  RECOMP_ASSIGN_OR_RETURN(node.scheme, SchemeDescriptor::Parse(descriptor));
  if (!node.scheme.children.empty()) {
    return Status::Corruption(
        "node descriptor must not carry children (structure is in parts)");
  }
  RECOMP_ASSIGN_OR_RETURN(node.n, r.U64());
  if (node.n > kMaxClaimedRows) {
    return Status::Corruption("implausible row count");
  }
  RECOMP_ASSIGN_OR_RETURN(node.out_type, ReadTypeId(r));
  RECOMP_ASSIGN_OR_RETURN(uint32_t part_count, r.U32());
  if (part_count > 16) {
    return Status::Corruption("implausible part count");
  }
  for (uint32_t i = 0; i < part_count; ++i) {
    RECOMP_ASSIGN_OR_RETURN(std::string name, r.String());
    if (name.empty() || node.parts.count(name) != 0) {
      return Status::Corruption("empty or duplicate part name");
    }
    RECOMP_ASSIGN_OR_RETURN(uint8_t tag, r.U8());
    CompressedPart part;
    if (tag == 0) {
      RECOMP_ASSIGN_OR_RETURN(AnyColumn column, ReadColumn(r));
      part.column = std::move(column);
    } else if (tag == 1) {
      RECOMP_ASSIGN_OR_RETURN(CompressedNode sub, ReadNode(r, depth + 1));
      part.sub = std::make_unique<CompressedNode>(std::move(sub));
    } else {
      return Status::Corruption("unknown part tag");
    }
    node.parts.emplace(std::move(name), std::move(part));
  }
  return node;
}

uint64_t ColumnSerializedSize(const AnyColumn& column) {
  if (column.is_packed()) {
    return 1 + 1 + 2 + 8 + 8 + column.packed().bytes.size();
  }
  return 1 + 1 + 8 + column.ByteSize();
}

uint64_t NodeSerializedSize(const CompressedNode& node) {
  uint64_t size = 4 + node.scheme.ToString().size() + 8 + 1 + 4;
  for (const auto& [name, part] : node.parts) {
    size += 4 + name.size() + 1;
    size += part.is_terminal() ? ColumnSerializedSize(*part.column)
                               : NodeSerializedSize(*part.sub);
  }
  return size;
}

/// Fixed byte size of one v2 chunk-directory entry.
constexpr uint64_t kDirectoryEntrySize = 8 + 8 + 1 + 8 + 8 + 8;

}  // namespace

Result<std::vector<uint8_t>> Serialize(const CompressedColumn& compressed) {
  std::vector<uint8_t> out;
  out.reserve(SerializedSize(compressed));
  Writer w(&out);
  w.Raw(kMagic, 4);
  w.U16(kSerializedVersion);
  WriteNode(w, compressed.root());
  CountSerialized("written", out.size(), 0);
  return out;
}

Result<std::vector<uint8_t>> Serialize(const ChunkedCompressedColumn& chunked) {
  if (chunked.num_chunks() > (uint64_t{1} << 24)) {
    // Stay within what DeserializeChunked accepts: the writer must never
    // produce a buffer its own reader refuses.
    return Status::InvalidArgument("too many chunks to serialize (> 2^24)");
  }
  std::vector<uint8_t> out;
  out.reserve(SerializedSize(chunked));
  Writer w(&out);
  w.Raw(kMagic, 4);
  w.U16(kSerializedVersionChunked);
  w.U8(static_cast<uint8_t>(chunked.type()));
  w.U64(chunked.size());
  w.U32(static_cast<uint32_t>(chunked.num_chunks()));
  for (const auto& chunk : chunked.chunks()) {
    w.U64(chunk->zone.row_begin);
    w.U64(chunk->zone.row_count);
    w.U8(chunk->zone.has_minmax ? 1 : 0);
    w.U64(chunk->zone.min);
    w.U64(chunk->zone.max);
    w.U64(NodeSerializedSize(chunk->column.root()));
  }
  for (const auto& chunk : chunked.chunks()) {
    WriteNode(w, chunk->column.root());
  }
  CountSerialized("written", out.size(), chunked.num_chunks());
  return out;
}

Result<CompressedColumn> Deserialize(const std::vector<uint8_t>& buffer) {
  Reader r(buffer);
  char magic[4];
  RECOMP_RETURN_NOT_OK(r.ReadRaw(magic, 4));
  if (std::memcmp(magic, kMagic, 4) != 0) {
    return Status::Corruption("bad magic: not a recomp buffer");
  }
  RECOMP_ASSIGN_OR_RETURN(uint16_t version, r.U16());
  if (version != kSerializedVersion) {
    return Status::Corruption(
        StringFormat("unsupported version %u", version));
  }
  RECOMP_ASSIGN_OR_RETURN(CompressedNode root, ReadNode(r, 0));
  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes after envelope");
  }
  CountSerialized("read", buffer.size(), 0);
  return CompressedColumn(std::move(root));
}

Result<ChunkedCompressedColumn> DeserializeChunked(
    const std::vector<uint8_t>& buffer, const ExecContext& ctx) {
  Reader r(buffer);
  char magic[4];
  RECOMP_RETURN_NOT_OK(r.ReadRaw(magic, 4));
  if (std::memcmp(magic, kMagic, 4) != 0) {
    return Status::Corruption("bad magic: not a recomp buffer");
  }
  RECOMP_ASSIGN_OR_RETURN(uint16_t version, r.U16());
  if (version == kSerializedVersion) {
    // A whole-column buffer is the single-chunk special case.
    RECOMP_ASSIGN_OR_RETURN(CompressedNode root, ReadNode(r, 0));
    if (!r.AtEnd()) {
      return Status::Corruption("trailing bytes after envelope");
    }
    CountSerialized("read", buffer.size(), 0);
    return ChunkedCompressedColumn::FromSingle(
        CompressedColumn(std::move(root)));
  }
  if (version != kSerializedVersionChunked) {
    return Status::Corruption(
        StringFormat("unsupported version %u", version));
  }
  RECOMP_ASSIGN_OR_RETURN(TypeId type, ReadTypeId(r));
  RECOMP_ASSIGN_OR_RETURN(uint64_t total_rows, r.U64());
  RECOMP_ASSIGN_OR_RETURN(uint32_t chunk_count, r.U32());
  if (chunk_count > (uint32_t{1} << 24)) {
    return Status::Corruption("implausible chunk count");
  }
  if (chunk_count == 0) {
    // The writer always emits at least one chunk (an empty column is one
    // empty chunk), so an empty directory — with or without claimed rows —
    // is a buffer no Serialize ever produced.
    return Status::Corruption("empty chunk directory");
  }
  // The directory must fit in what remains before any entry is trusted.
  RECOMP_RETURN_NOT_OK(r.Need(chunk_count * kDirectoryEntrySize));
  std::vector<ZoneMap> zones(chunk_count);
  std::vector<uint64_t> node_bytes(chunk_count);
  uint64_t expected_row_begin = 0;
  for (uint32_t i = 0; i < chunk_count; ++i) {
    RECOMP_ASSIGN_OR_RETURN(zones[i].row_begin, r.U64());
    RECOMP_ASSIGN_OR_RETURN(zones[i].row_count, r.U64());
    // Chunks must tile [0, total_rows) in order: a row_begin below the
    // running total is an overlap, above it a gap, either way corrupt.
    if (zones[i].row_begin != expected_row_begin) {
      return Status::Corruption(StringFormat(
          "chunk %u starts at row %llu, expected %llu (directory not "
          "contiguous)",
          i, static_cast<unsigned long long>(zones[i].row_begin),
          static_cast<unsigned long long>(expected_row_begin)));
    }
    if (zones[i].row_count > ~uint64_t{0} - expected_row_begin) {
      return Status::Corruption("chunk row counts overflow");
    }
    expected_row_begin += zones[i].row_count;
    RECOMP_ASSIGN_OR_RETURN(uint8_t has_minmax, r.U8());
    if (has_minmax > 1) {
      return Status::Corruption("zone map flag must be 0 or 1");
    }
    zones[i].has_minmax = has_minmax == 1;
    RECOMP_ASSIGN_OR_RETURN(zones[i].min, r.U64());
    RECOMP_ASSIGN_OR_RETURN(zones[i].max, r.U64());
    if (zones[i].has_minmax && zones[i].min > zones[i].max) {
      return Status::Corruption("zone map min exceeds max");
    }
    RECOMP_ASSIGN_OR_RETURN(node_bytes[i], r.U64());
  }
  if (expected_row_begin != total_rows) {
    return Status::Corruption("directory row counts disagree with the header");
  }
  // Every chunk payload must lie inside the buffer before any is parsed:
  // reject node_bytes offsets that run past the end (or overflow the sum).
  uint64_t payload_bytes = 0;
  std::vector<uint64_t> offsets(chunk_count);
  for (uint32_t i = 0; i < chunk_count; ++i) {
    offsets[i] = payload_bytes;
    if (node_bytes[i] > ~uint64_t{0} - payload_bytes) {
      return Status::Corruption("chunk payload lengths overflow");
    }
    payload_bytes += node_bytes[i];
  }
  RECOMP_RETURN_NOT_OK(r.Need(payload_bytes));
  // The validated directory pins each payload's offset and length, so every
  // chunk parses from its own bounded sub-reader — independently, fanned out
  // over ctx's pool into pre-sized slots. VisitIndicesInto reports the first
  // failing chunk in index order, exactly as a sequential loop would.
  const uint8_t* payloads = buffer.data() + r.Position();
  std::vector<std::shared_ptr<const CompressedChunk>> slots;
  RECOMP_RETURN_NOT_OK(VisitIndicesInto(
      ctx, chunk_count, &slots,
      [&](uint64_t i) -> Result<std::shared_ptr<const CompressedChunk>> {
        Reader chunk_reader(payloads + offsets[i], node_bytes[i]);
        RECOMP_ASSIGN_OR_RETURN(CompressedNode root, ReadNode(chunk_reader, 0));
        if (!chunk_reader.AtEnd()) {
          return Status::Corruption(
              "chunk payload length disagrees with the directory");
        }
        if (root.n != zones[i].row_count) {
          return Status::Corruption(
              "chunk row count disagrees with the directory");
        }
        if (root.out_type != type) {
          return Status::Corruption("chunk type disagrees with the header");
        }
        CompressedChunk chunk;
        chunk.zone = zones[i];
        chunk.column = CompressedColumn(std::move(root));
        return std::make_shared<const CompressedChunk>(std::move(chunk));
      }));
  ChunkedCompressedColumn out;
  for (uint32_t i = 0; i < chunk_count; ++i) {
    RECOMP_RETURN_NOT_OK(out.AppendChunk(std::move(slots[i])));
  }
  if (r.Position() + payload_bytes != buffer.size()) {
    return Status::Corruption("trailing bytes after envelope");
  }
  if (out.size() != total_rows) {
    return Status::Corruption("total row count disagrees with the header");
  }
  CountSerialized("read", buffer.size(), chunk_count);
  return out;
}

uint64_t SerializedSize(const CompressedColumn& compressed) {
  return 4 + 2 + NodeSerializedSize(compressed.root());
}

uint64_t SerializedSize(const ChunkedCompressedColumn& chunked) {
  uint64_t size = 4 + 2 + 1 + 8 + 4;
  for (const auto& chunk : chunked.chunks()) {
    size += kDirectoryEntrySize + NodeSerializedSize(chunk->column.root());
  }
  return size;
}

}  // namespace recomp
