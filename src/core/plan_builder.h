// Builds the operator plan that decompresses a compressed envelope.
//
// Each scheme contributes the operator sequence of its decompression
// algorithm; composition concatenates sequences (a child's output column
// feeds the parent's expected part slot). For the catalog's RLE and FOR
// shapes the emitted plans are, node for node, the paper's Algorithm 1 and
// Algorithm 2 — the tests pin this correspondence.

#ifndef RECOMP_CORE_PLAN_BUILDER_H_
#define RECOMP_CORE_PLAN_BUILDER_H_

#include "core/compressed.h"
#include "core/plan.h"
#include "util/result.h"

namespace recomp {

/// Builds the (unoptimized, paper-faithful) decompression plan for
/// `compressed`.
Result<Plan> BuildDecompressionPlan(const CompressedColumn& compressed);

}  // namespace recomp

#endif  // RECOMP_CORE_PLAN_BUILDER_H_
