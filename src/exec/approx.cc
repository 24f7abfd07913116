#include "exec/approx.h"

#include <algorithm>
#include <limits>

#include "core/envelope.h"
#include "schemes/scheme_internal.h"

namespace recomp::exec {

Result<ApproxSum> RefineSum(const CompressedColumn& compressed,
                            uint64_t refined_segments) {
  const CompressedNode& node = compressed.root();
  RECOMP_ASSIGN_OR_RETURN(const EnvelopeView view, ViewEnvelope(node));
  if (view.shape != FusedShape::kFor) {
    return Status::InvalidArgument(
        "approximate answering requires a MODELED(STEP){residual: NS} "
        "envelope");
  }
  return internal::DispatchUnsignedTypeId(
      node.out_type, [&](auto tag) -> Result<ApproxSum> {
        using T = typename decltype(tag)::type;
        ForSegments<T> segments(view, node.n);
        ApproxSum result;
        result.total_segments = segments.size();
        result.refined_segments = std::min(refined_segments, segments.size());

        uint64_t lower = 0;
        uint64_t upper = 0;
        for (uint64_t s = 0; s < segments.size(); ++s) {
          const ForSegment<T> segment = segments[s];
          const uint64_t len = segment.end - segment.begin;
          if (s < result.refined_segments) {
            RECOMP_ASSIGN_OR_RETURN(const T* residuals,
                                    segments.Residuals(segment));
            uint64_t mass = 0;
            for (uint64_t i = 0; i < len; ++i) {
              mass += static_cast<T>(segment.ref + residuals[i]);
            }
            lower += mass;
            upper += mass;
          } else if (!segment.bounded) {
            upper += static_cast<uint64_t>(std::numeric_limits<T>::max()) * len;
          } else {
            lower += segment.lo * len;
            upper += segment.hi * len;
          }
        }
        result.lower = lower;
        result.upper = upper;
        return result;
      });
}

Result<ApproxSum> ApproximateSum(const CompressedColumn& compressed) {
  return RefineSum(compressed, 0);
}

}  // namespace recomp::exec
