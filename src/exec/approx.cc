#include "exec/approx.h"

#include <algorithm>

#include "core/envelope.h"
#include "ops/pack.h"
#include "schemes/scheme_internal.h"
#include "util/bits.h"

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
  const uint64_t mask = bits::LowMask64(view.packed->bit_width);
  return internal::DispatchUnsignedTypeId(
      node.out_type, [&](auto tag) -> Result<ApproxSum> {
        using T = typename decltype(tag)::type;
        const Column<T>& refs = view.refs->As<T>();
        ApproxSum result;
        result.total_segments = refs.size();
        result.refined_segments = std::min(refined_segments, refs.size());

        uint64_t lower = 0;
        uint64_t upper = 0;
        // Sized by rows: ell is input.
        Column<T> buffer(std::min(view.ell, node.n));
        for (uint64_t seg = 0; seg < refs.size(); ++seg) {
          const uint64_t begin = seg * view.ell;
          const uint64_t end = std::min<uint64_t>(begin + view.ell, node.n);
          const uint64_t len = end - begin;
          const T ref = refs[seg];
          if (seg < result.refined_segments) {
            RECOMP_RETURN_NOT_OK(
                ops::UnpackRange(*view.packed, begin, end, buffer.data()));
            uint64_t mass = 0;
            for (uint64_t i = 0; i < len; ++i) {
              mass += static_cast<T>(ref + buffer[i]);
            }
            lower += mass;
            upper += mass;
          } else if (ForWindowWraps<T>(ref, mask)) {
            upper += static_cast<uint64_t>(std::numeric_limits<T>::max()) * len;
          } else {
            lower += static_cast<uint64_t>(ref) * len;
            upper += (static_cast<uint64_t>(ref) + mask) * len;
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
