// The layer ladder: a fixed sample of a workload's queries replayed rung by
// rung on one snapshot — memcpy of the bytes the queries decode, bit
// unpacking, fused decode, chunked select, exec::Scan on one thread and on
// the pool, ExecuteBatch, and the QueryService — so each layer's cost over
// the one beneath it can be read off, against the memcpy ceiling.

#ifndef PERFBENCH_LADDER_H_
#define PERFBENCH_LADDER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exec/scan.h"
#include "service/query_service.h"
#include "store/table.h"
#include "trace.h"

namespace perfbench {

struct LadderInput {
  /// Quiescent while the ladder runs: the service rung snapshots it too.
  const recomp::store::Table* table = nullptr;
  std::vector<recomp::exec::ScanSpec> sample;
  /// Workers of the ladder's own pool, on which the pool rungs run.
  uint64_t pool_workers = 1;
  recomp::service::ServiceOptions options;
  /// Queries per ExecuteBatch window: the batch size the run observed.
  uint64_t window = 1;
};

/// Replays the ladder, records one span per rung under each query's ladder
/// span, adds the ops/core/exec/service/util ladder metrics to `per_layer`, and
/// returns the rung table as text. Exits non-zero if a rung's answer
/// differs from solo exec::Scan.
std::string RunLadder(const LadderInput& input, SpanLog* log,
                      std::map<std::string, double>* per_layer);

}  // namespace perfbench

#endif  // PERFBENCH_LADDER_H_
