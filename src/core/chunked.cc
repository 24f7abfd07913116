#include "core/chunked.h"

#include <algorithm>

#include "core/fused.h"
#include "core/pipeline.h"
#include "obs/metrics.h"
#include "schemes/scheme_internal.h"
#include "util/string_util.h"

namespace recomp {

ZoneMap ComputeZoneMap(const AnyColumn& slice, uint64_t row_begin) {
  ZoneMap zone;
  zone.row_begin = row_begin;
  zone.row_count = slice.size();
  if (slice.size() == 0) return zone;
  const Status status = internal::DispatchUnsignedColumn(
      slice, [&](const auto& col) -> Status {
        // By value, not through iterators: the loop vectorizes.
        auto lo = col[0];
        auto hi = col[0];
        for (const auto v : col) {
          lo = std::min(lo, v);
          hi = std::max(hi, v);
        }
        zone.has_minmax = true;
        zone.min = static_cast<uint64_t>(lo);
        zone.max = static_cast<uint64_t>(hi);
        return Status::OK();
      });
  (void)status;
  return zone;
}

uint64_t ChunkedCompressedColumn::PayloadBytes() const {
  uint64_t total = 0;
  for (const auto& chunk : chunks_) {
    total += chunk->column.PayloadBytes();
  }
  return total;
}

double ChunkedCompressedColumn::Ratio() const {
  const uint64_t payload = PayloadBytes();
  if (payload == 0) return 0.0;
  return static_cast<double>(UncompressedBytes()) /
         static_cast<double>(payload);
}

uint64_t ChunkedCompressedColumn::ChunkIndexOf(uint64_t row) const {
  RECOMP_DCHECK(row < n_, "ChunkIndexOf past the end of the column");
  // Last chunk whose row_begin <= row.
  const auto it = std::upper_bound(
      chunks_.begin(), chunks_.end(), row,
      [](uint64_t r, const std::shared_ptr<const CompressedChunk>& c) {
        return r < c->zone.row_begin;
      });
  return static_cast<uint64_t>(it - chunks_.begin()) - 1;
}

ChunkedCompressedColumn ChunkedCompressedColumn::FromSingle(
    CompressedColumn column) {
  ChunkedCompressedColumn out;
  CompressedChunk chunk;
  chunk.zone.row_begin = 0;
  chunk.zone.row_count = column.size();
  chunk.column = std::move(column);
  out.type_ = chunk.column.type();
  out.n_ = chunk.zone.row_count;
  out.chunks_.push_back(
      std::make_shared<const CompressedChunk>(std::move(chunk)));
  return out;
}

Status ChunkedCompressedColumn::AppendChunk(CompressedChunk chunk) {
  return AppendChunk(std::make_shared<const CompressedChunk>(std::move(chunk)));
}

Status ChunkedCompressedColumn::AppendChunk(
    std::shared_ptr<const CompressedChunk> shared) {
  const CompressedChunk& chunk = *shared;
  if (chunk.zone.row_begin != n_) {
    return Status::InvalidArgument(StringFormat(
        "chunk starts at row %llu, expected %llu",
        static_cast<unsigned long long>(chunk.zone.row_begin),
        static_cast<unsigned long long>(n_)));
  }
  if (chunk.zone.row_count != chunk.column.size()) {
    return Status::InvalidArgument(
        "chunk zone map row count disagrees with its envelope");
  }
  if (chunks_.empty()) {
    type_ = chunk.column.type();
  } else if (chunk.column.type() != type_) {
    return Status::InvalidArgument(StringFormat(
        "chunk type %s differs from column type %s",
        TypeIdName(chunk.column.type()), TypeIdName(type_)));
  }
  n_ += chunk.zone.row_count;
  chunks_.push_back(std::move(shared));
  return Status::OK();
}

std::string ChunkedCompressedColumn::ToString() const {
  std::string out = StringFormat(
      "chunked %s n=%llu chunks=%zu (%s, %.2fx)\n", TypeIdName(type_),
      static_cast<unsigned long long>(n_), chunks_.size(),
      HumanBytes(PayloadBytes()).c_str(), Ratio());
  for (size_t i = 0; i < chunks_.size(); ++i) {
    const CompressedChunk& chunk = *chunks_[i];
    out += StringFormat(
        "  [%zu] rows [%llu, %llu) %s", i,
        static_cast<unsigned long long>(chunk.zone.row_begin),
        static_cast<unsigned long long>(chunk.zone.row_begin +
                                        chunk.zone.row_count),
        chunk.column.Descriptor().ToString().c_str());
    if (chunk.zone.has_minmax) {
      out += StringFormat(" zone=[%llu, %llu]",
                          static_cast<unsigned long long>(chunk.zone.min),
                          static_cast<unsigned long long>(chunk.zone.max));
    }
    out += StringFormat(" (%s)\n",
                        HumanBytes(chunk.column.PayloadBytes()).c_str());
  }
  return out;
}

Result<CompressedChunk> SealChunk(const AnyColumn& rows, const ZoneMap& zone,
                                  const std::optional<SchemeDescriptor>& pin,
                                  const AnalyzerOptions& analyzer) {
  CompressedChunk chunk;
  chunk.zone = zone;
  if (pin.has_value()) {
    RECOMP_ASSIGN_OR_RETURN(chunk.column, Compress(rows, *pin));
    return chunk;
  }
  RECOMP_ASSIGN_OR_RETURN(const SchemeDescriptor desc,
                          ChooseScheme(rows, analyzer));
  RECOMP_ASSIGN_OR_RETURN(chunk.column, Compress(rows, desc));
  // Set against analyzer.estimated_bytes: drift is the cost model lying.
  static obs::Counter& actual =
      obs::Registry::Get().GetCounter("analyzer.actual_bytes");
  actual.Add(chunk.column.PayloadBytes());
  return chunk;
}

namespace {

/// Shared shape of CompressChunked / CompressChunkedAuto: validate, fan the
/// chunk indices out over `ctx` into pre-sized slots (so workers never
/// contend), seal each slice, then assemble in chunk order.
Result<ChunkedCompressedColumn> CompressChunkedImpl(
    const AnyColumn& input, const ChunkingOptions& options,
    const ExecContext& ctx, const std::optional<SchemeDescriptor>& pin,
    const AnalyzerOptions& analyzer) {
  if (options.chunk_rows == 0) {
    return Status::InvalidArgument("chunk_rows must be positive");
  }
  if (input.is_packed()) {
    return Status::InvalidArgument(
        "chunked compression requires a plain column");
  }
  const uint64_t n = input.size();
  // An empty input still yields one empty chunk so the result is well-typed.
  const uint64_t num_chunks =
      n == 0 ? 1 : (n + options.chunk_rows - 1) / options.chunk_rows;
  std::vector<CompressedChunk> slots;
  RECOMP_RETURN_NOT_OK(VisitIndicesInto(
      ctx, num_chunks, &slots, [&](uint64_t i) -> Result<CompressedChunk> {
        const uint64_t begin = i * options.chunk_rows;
        const uint64_t end = std::min<uint64_t>(n, begin + options.chunk_rows);
        RECOMP_ASSIGN_OR_RETURN(AnyColumn slice, SliceRows(input, begin, end));
        return SealChunk(slice, ComputeZoneMap(slice, begin), pin, analyzer);
      }));
  ChunkedCompressedColumn out;
  for (CompressedChunk& slot : slots) {
    RECOMP_RETURN_NOT_OK(out.AppendChunk(std::move(slot)));
  }
  return out;
}

}  // namespace

Result<ChunkedCompressedColumn> CompressChunked(const AnyColumn& input,
                                                const SchemeDescriptor& desc,
                                                const ChunkingOptions& options,
                                                const ExecContext& ctx) {
  return CompressChunkedImpl(input, options, ctx, desc, {});
}

Result<ChunkedCompressedColumn> CompressChunkedAuto(
    const AnyColumn& input, const ChunkingOptions& options,
    const AnalyzerOptions& analyzer_options, const ExecContext& ctx) {
  // Each chunk is sliced once, then analyzed and compressed.
  return CompressChunkedImpl(input, options, ctx, std::nullopt,
                             analyzer_options);
}

Result<AnyColumn> DecompressChunked(const ChunkedCompressedColumn& chunked,
                                    const ExecContext& ctx) {
  return internal::DispatchAnyTypeId(
      chunked.type(), [&](auto tag) -> Result<AnyColumn> {
        using T = typename decltype(tag)::type;
        // Pre-sized output: every chunk owns the disjoint slice starting at
        // its row_begin, so workers never overlap.
        Column<T> out(chunked.size());
        RECOMP_RETURN_NOT_OK(ParallelForOk(
            ctx, chunked.num_chunks(), [&](uint64_t i) -> Status {
              const CompressedChunk& chunk = chunked.chunk(i);
              RECOMP_ASSIGN_OR_RETURN(AnyColumn part,
                                      FusedDecompress(chunk.column));
              if (part.is_packed() || part.type() != chunked.type()) {
                return Status::Corruption(
                    "chunk decompressed to an unexpected type");
              }
              const Column<T>& values = part.As<T>();
              if (values.size() != chunk.zone.row_count) {
                return Status::Corruption(
                    "chunk decompressed to an unexpected row count");
              }
              std::copy(values.begin(), values.end(),
                        out.begin() + chunk.zone.row_begin);
              return Status::OK();
            }));
        return AnyColumn(std::move(out));
      });
}

}  // namespace recomp
