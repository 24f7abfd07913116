// Fused decompression kernels.
//
// The operator-plan strategy (plan_executor.h) materializes every
// intermediate column; these kernels decompress the analyzer's common
// cascades in one pass with no materialized intermediates — unpack, model
// reconstruction, zigzag decode, and prefix sums happen register-to-register
// (via ops/kernels_avx2.h when ops::HasAvx2()) or in one tight scalar loop.
// Output and error behavior always match the per-scheme reference recursion
// (core/pipeline.h); tests/fused_fuzz_test.cc enforces bit-identical
// agreement across both dispatch paths.

#ifndef RECOMP_CORE_FUSED_H_
#define RECOMP_CORE_FUSED_H_

#include "core/compressed.h"
#include "util/result.h"

namespace recomp {

/// Shapes with dedicated single-pass kernels.
enum class FusedShape : int {
  kRle = 0,             ///< RPE{positions: DELTA} with plain parts.
  kFor = 1,             ///< MODELED(STEP){residual: NS} with packed residual.
  kDeltaZigZagNs = 2,   ///< DELTA{deltas: ZIGZAG{recoded: NS}}.
  kNs = 3,              ///< Plain NS: one packed terminal.
  kRleNs = 4,           ///< RPE{positions: DELTA{deltas: NS}}, any values.
  kPatchedNs = 5,       ///< PATCHED{base: NS} with plain patch lists.
  kPfor = 6,            ///< MODELED(STEP){residual: PATCHED{base: NS}}.
  kDeltaZigZagPatchedNs = 7,  ///< DELTA{ZIGZAG{PATCHED{base: NS}}}.
  kGeneric = 8,         ///< Anything else: per-scheme reference recursion.
};

/// Number of FusedShape enumerators (kGeneric included).
inline constexpr int kNumFusedShapes = 9;

/// Stable lowercase name, e.g. "delta-zz-ns"; used as a metric label
/// (obs/metrics.h), so cardinality stays bounded by the enum.
const char* FusedShapeName(FusedShape shape);

/// Classifies which kernel FusedDecompress will use: the envelope view's
/// shape (core/envelope.h), or kGeneric for a node the view refuses (no
/// kernel decodes it; FusedDecompress returns the view's error).
FusedShape ClassifyFusedShape(const CompressedNode& node);

/// Predicts the kernel a column compressed with `desc` would decode
/// through, before any data is compressed: the envelope view's shape
/// grammar (core/envelope.h) read over the descriptor tree, so it names
/// exactly the shape ClassifyFusedShape names for an unsigned column of that
/// descriptor. The analyzer's cost model uses this to discount shapes that
/// decode through the fused SIMD cascade.
FusedShape ClassifyFusedDescriptor(const SchemeDescriptor& desc);

/// Single-pass decompression where a specialized kernel exists; otherwise
/// the per-scheme reference recursion (core/pipeline.h). Output always
/// equals Decompress(compressed).
Result<AnyColumn> FusedDecompress(const CompressedColumn& compressed);

/// Node-level entry point (equals DecompressNode(node)); used by exec
/// operators holding sub-trees and by the RLE kernels' values recursion.
Result<AnyColumn> FusedDecompressNode(const CompressedNode& node);

}  // namespace recomp

#endif  // RECOMP_CORE_FUSED_H_
