// Interprets a decompression Plan over a compressed envelope.
//
// Each node materializes one intermediate column, exactly as a columnar
// query executor would — this is the paper's "decompression as query
// execution" strategy, in contrast to the fused kernels of core/fused.h.

#ifndef RECOMP_CORE_PLAN_EXECUTOR_H_
#define RECOMP_CORE_PLAN_EXECUTOR_H_

#include "core/compressed.h"
#include "core/plan.h"
#include "util/result.h"

namespace recomp {

/// Evaluates `plan` against the terminal part columns of `compressed`;
/// returns the final node's column.
Result<AnyColumn> ExecutePlan(const Plan& plan,
                              const CompressedColumn& compressed);

/// Resolves a slash-separated part path (e.g. "positions/deltas") to the
/// terminal column it names.
Result<const AnyColumn*> ResolvePartPath(const CompressedNode& node,
                                         const std::string& path);

}  // namespace recomp

#endif  // RECOMP_CORE_PLAN_EXECUTOR_H_
