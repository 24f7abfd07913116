// The decompression plan IR.
//
// The paper's central observation is that decompression *is* a plan of
// ordinary columnar operators (its Algorithms 1 and 2). This IR makes such
// plans first-class: a Plan is a topologically ordered DAG of operator
// nodes over the "pure columns" of a compressed envelope. Plans are built
// from envelopes (plan_builder.h), optionally rewritten by fusion passes
// (plan_optimizer.h), interpreted (plan_executor.h), and rendered as
// paper-style listings for inspection.

#ifndef RECOMP_CORE_PLAN_H_
#define RECOMP_CORE_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "columnar/type.h"
#include "ops/elementwise.h"
#include "util/status.h"

namespace recomp {

/// The operator vocabulary. The first group is the paper's §II vocabulary;
/// the second group contains decode operators for recodings (NS, ZIGZAG,
/// VBYTE) and model evaluation; the third group exists only as fusion
/// targets of the plan optimizer.
enum class PlanOpKind : int {
  // -- paper §II columnar operators --
  kInput = 0,             ///< A terminal part column of the envelope.
  kPrefixSumInclusive,    ///< The paper's PrefixSum.
  kPrefixSumExclusive,    ///< 0-based variant (Algorithm 2's id column).
  kPopBack,               ///< Drop the last element.
  kConstant,              ///< Constant(value, |inputs[0]|) or (value, imm2).
  kScatter,               ///< Scatter(values, indices) into target column.
  kGather,                ///< Gather(values, indices).
  kElementwise,           ///< Elementwise(bin_op, a, b).
  // -- decode / evaluation operators --
  kUnpack,                ///< NS decode: packed column -> plain column.
  kZigZagDecode,          ///< ZIGZAG decode to type_param.
  kVByteDecode,           ///< VBYTE decode: u8 stream -> imm2 values.
  kEvalPlin,              ///< Piecewise-linear model eval (bases, slopes).
  // -- optimizer fusion targets --
  kElementwiseScalar,     ///< Elementwise with an immediate operand.
  kIota,                  ///< 0.. or 1.. sequence (fused Constant+PrefixSum).
  kScatterConst,          ///< Scatter an immediate into fresh zeros.
  kReplicate,             ///< Segment replication (fused Iota+Div+Gather).
};

/// Stable name, e.g. "PrefixSum".
const char* PlanOpKindName(PlanOpKind kind);

/// One operator application. Operands reference earlier nodes by index.
struct PlanNode {
  PlanOpKind op = PlanOpKind::kInput;
  /// Indices of operand nodes (all < this node's index).
  std::vector<int> inputs;

  /// Immediate operand: Constant/ScatterConst value, scalar operand,
  /// Iota start, Replicate/EvalPlin segment length.
  uint64_t imm = 0;
  /// Secondary immediate: explicit output length where no operand's length
  /// applies (Constant, ScatterConst, VByteDecode, Iota, EvalPlin).
  uint64_t imm2 = 0;
  /// Binary operation for kElementwise / kElementwiseScalar.
  ops::BinOp bin_op = ops::BinOp::kAdd;
  /// Output element type for kConstant / kZigZagDecode / kVByteDecode /
  /// kIota (index-producing ops default to uint32).
  TypeId type_param = TypeId::kUInt32;

  /// For kInput: slash-separated path of the part inside the envelope,
  /// e.g. "positions/deltas".
  std::string input_path;
  /// Human-readable slot name used by ToString (mirrors the paper's
  /// variable names, e.g. "run_positions'").
  std::string label;
};

/// A decompression plan: nodes in topological order; the last node is the
/// output column.
struct Plan {
  std::vector<PlanNode> nodes;

  /// Number of non-input operator applications (the paper counts these).
  uint64_t OperatorCount() const;

  /// Paper-style listing, one numbered line per node, e.g.
  ///   1: run_positions <- PrefixSum(lengths)
  std::string ToString() const;

  /// Structural sanity: operand indices in range and acyclic by
  /// construction, exactly one output.
  Status Validate() const;
};

}  // namespace recomp

#endif  // RECOMP_CORE_PLAN_H_
