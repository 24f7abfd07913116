#include "service/result_cache.h"

namespace recomp::service {

uint64_t ApproxResultBytes(const exec::ScanResult& result) {
  uint64_t bytes = sizeof(exec::ScanResult);
  bytes += result.positions.size() * sizeof(uint32_t);
  for (const exec::ScanFilterStats& filter : result.filters) {
    bytes += filter.column.size();
    bytes += filter.stats.per_chunk.size() * sizeof(exec::ChunkSelectionStats);
  }
  for (const exec::ScanProjection& projection : result.projections) {
    bytes += projection.column.size();
    bytes += projection.values.ByteSize();
  }
  for (const exec::ScanAggregate& aggregate : result.aggregates) {
    bytes += sizeof(exec::ScanAggregate) + aggregate.column.size();
  }
  return bytes;
}

}  // namespace recomp::service
