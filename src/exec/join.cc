#include "exec/join.h"

#include <utility>

#include "exec/selection.h"

namespace recomp::exec {

Result<SemiJoinResult> SemiJoinCompressed(const CompressedColumn& compressed,
                                          const Column<uint64_t>& sorted_keys) {
  for (uint64_t i = 1; i < sorted_keys.size(); ++i) {
    if (sorted_keys[i] <= sorted_keys[i - 1]) {
      return Status::InvalidArgument(
          "semi-join keys must be sorted and deduplicated");
    }
  }
  KeySetPredicate predicate{sorted_keys};
  RECOMP_ASSIGN_OR_RETURN(SelectionResult selection,
                          FilterCompressed(compressed, predicate));
  return SemiJoinResult{std::move(selection.positions),
                        selection.stats.strategy, predicate.probes};
}

}  // namespace recomp::exec
