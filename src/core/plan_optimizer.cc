#include "core/plan_optimizer.h"

#include <optional>

namespace recomp {

namespace {

bool IsConstant(const Plan& plan, int slot, uint64_t* value) {
  const PlanNode& node = plan.nodes[static_cast<size_t>(slot)];
  if (node.op != PlanOpKind::kConstant) return false;
  *value = node.imm;
  return true;
}

/// One rewrite round; returns true if anything changed.
bool RewriteOnce(Plan* plan) {
  for (size_t i = 0; i < plan->nodes.size(); ++i) {
    PlanNode& node = plan->nodes[i];

    // R1: Elementwise(op, a, Constant(c)) -> ElementwiseScalar(op, a, c).
    // (Divisor/subtrahend must be the constant side; for + and * either
    // side fuses by commutativity.)
    if (node.op == PlanOpKind::kElementwise) {
      uint64_t c = 0;
      if (IsConstant(*plan, node.inputs[1], &c)) {
        node.op = PlanOpKind::kElementwiseScalar;
        node.imm = c;
        node.inputs = {node.inputs[0]};
        return true;
      }
      if ((node.bin_op == ops::BinOp::kAdd ||
           node.bin_op == ops::BinOp::kMul) &&
          IsConstant(*plan, node.inputs[0], &c)) {
        node.op = PlanOpKind::kElementwiseScalar;
        node.imm = c;
        node.inputs = {node.inputs[1]};
        return true;
      }
    }

    // R2: PrefixSum(Constant(1)) -> Iota (inclusive: 1.., exclusive: 0..).
    if (node.op == PlanOpKind::kPrefixSumInclusive ||
        node.op == PlanOpKind::kPrefixSumExclusive) {
      uint64_t c = 0;
      if (IsConstant(*plan, node.inputs[0], &c) && c == 1) {
        const PlanNode& ones = plan->nodes[static_cast<size_t>(node.inputs[0])];
        const bool inclusive = node.op == PlanOpKind::kPrefixSumInclusive;
        node.op = PlanOpKind::kIota;
        node.imm = inclusive ? 1 : 0;
        node.imm2 = ones.imm2;
        node.type_param = ones.type_param;
        node.inputs = ones.inputs;  // Length source, if any.
        return true;
      }
    }

    // R3: Scatter(Constant(v), indices, Constant(0, n)) -> ScatterConst.
    if (node.op == PlanOpKind::kScatter) {
      uint64_t value = 0;
      uint64_t zero = 0;
      if (IsConstant(*plan, node.inputs[0], &value) &&
          IsConstant(*plan, node.inputs[2], &zero) && zero == 0) {
        const PlanNode& zeros =
            plan->nodes[static_cast<size_t>(node.inputs[2])];
        if (zeros.inputs.empty()) {  // Length known via imm2.
          node.op = PlanOpKind::kScatterConst;
          node.imm = value;
          node.imm2 = zeros.imm2;
          node.type_param = zeros.type_param;
          node.inputs = {node.inputs[1]};
          return true;
        }
      }
    }

    // R4: Gather(values, ElementwiseScalar('/', Iota(0), ell)) -> Replicate.
    if (node.op == PlanOpKind::kGather) {
      const PlanNode& idx = plan->nodes[static_cast<size_t>(node.inputs[1])];
      if (idx.op == PlanOpKind::kElementwiseScalar &&
          idx.bin_op == ops::BinOp::kDiv && idx.imm != 0) {
        const PlanNode& iota =
            plan->nodes[static_cast<size_t>(idx.inputs[0])];
        if (iota.op == PlanOpKind::kIota && iota.imm == 0 &&
            iota.inputs.empty() && iota.imm2 != 0) {
          node.op = PlanOpKind::kReplicate;
          node.imm = idx.imm;
          node.imm2 = iota.imm2;
          node.inputs = {node.inputs[0]};
          return true;
        }
      }
    }
  }
  return false;
}

/// Removes nodes no longer reachable from the output.
Plan DropDeadNodes(const Plan& plan) {
  std::vector<bool> live(plan.nodes.size(), false);
  std::vector<int> stack = {static_cast<int>(plan.nodes.size()) - 1};
  while (!stack.empty()) {
    const int slot = stack.back();
    stack.pop_back();
    if (live[static_cast<size_t>(slot)]) continue;
    live[static_cast<size_t>(slot)] = true;
    for (int in : plan.nodes[static_cast<size_t>(slot)].inputs) {
      stack.push_back(in);
    }
  }
  std::vector<int> remap(plan.nodes.size(), -1);
  Plan out;
  for (size_t i = 0; i < plan.nodes.size(); ++i) {
    if (!live[i]) continue;
    PlanNode node = plan.nodes[i];
    for (int& in : node.inputs) in = remap[static_cast<size_t>(in)];
    remap[i] = static_cast<int>(out.nodes.size());
    out.nodes.push_back(std::move(node));
  }
  return out;
}

}  // namespace

Result<Plan> OptimizePlan(const Plan& plan) {
  RECOMP_RETURN_NOT_OK(plan.Validate());
  Plan working = plan;
  while (RewriteOnce(&working)) {
  }
  Plan out = DropDeadNodes(working);
  RECOMP_RETURN_NOT_OK(out.Validate());
  return out;
}

}  // namespace recomp
