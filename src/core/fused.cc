#include "core/fused.h"

#include <algorithm>

#include "core/envelope.h"
#include "core/pipeline.h"
#include "obs/metrics.h"
#include "ops/dispatch.h"
#include "ops/kernels_avx2.h"
#include "ops/pack.h"
#include "schemes/scheme_internal.h"
#include "util/zigzag.h"

namespace recomp {

namespace {

/// Decode counters by FusedShape × kernel path, resolved once: a fused
/// decode costs two sharded relaxed adds, nothing more. The counters exist
/// even before the first decode (GetCounter creates on lookup), so a
/// snapshot of a u32 workload showing `fused.decode.ns.avx2 == 0` while
/// scalar counts grow shows a build that lost its vector kernels, visibly
/// instead of silently.
struct DecodeCounters {
  obs::Counter* count[kNumFusedShapes][2];
  obs::Counter* bytes[kNumFusedShapes][2];
  obs::Gauge* avx2_live;

  static const DecodeCounters& Get() {
    static const DecodeCounters counters = [] {
      DecodeCounters c;
      obs::Registry& registry = obs::Registry::Get();
      for (int s = 0; s < kNumFusedShapes; ++s) {
        const std::string shape = FusedShapeName(static_cast<FusedShape>(s));
        c.count[s][0] =
            &registry.GetCounter("fused.decode." + shape + ".scalar");
        c.count[s][1] =
            &registry.GetCounter("fused.decode." + shape + ".avx2");
        c.bytes[s][0] =
            &registry.GetCounter("fused.decoded_bytes." + shape + ".scalar");
        c.bytes[s][1] =
            &registry.GetCounter("fused.decoded_bytes." + shape + ".avx2");
      }
      c.avx2_live = &registry.GetGauge("dispatch.avx2_live");
      return c;
    }();
    return counters;
  }
};

/// Counts one successful node decode under the kernels that served it: the
/// AVX2 kernels decode u32 columns only.
void CountDecode(FusedShape shape, const CompressedNode& node) {
  const DecodeCounters& counters = DecodeCounters::Get();
  const bool avx2 = ops::HasAvx2();
  const int path = avx2 && node.out_type == TypeId::kUInt32 ? 1 : 0;
  const int s = static_cast<int>(shape);
  counters.count[s][path]->Increment();
  counters.bytes[s][path]->Add(
      node.n * static_cast<uint64_t>(TypeIdByteWidth(node.out_type)));
  counters.avx2_live->Set(avx2 ? 1 : 0);
}

}  // namespace

const char* FusedShapeName(FusedShape shape) {
  switch (shape) {
    case FusedShape::kRle:
      return "rle";
    case FusedShape::kFor:
      return "for";
    case FusedShape::kDeltaZigZagNs:
      return "delta-zz-ns";
    case FusedShape::kNs:
      return "ns";
    case FusedShape::kRleNs:
      return "rle-ns";
    case FusedShape::kPatchedNs:
      return "patched-ns";
    case FusedShape::kPfor:
      return "pfor";
    case FusedShape::kDeltaZigZagPatchedNs:
      return "delta-zz-patched-ns";
    case FusedShape::kGeneric:
      return "generic";
  }
  return "unknown";
}

namespace {

template <typename T>
struct PatchList {
  const Column<uint32_t>* positions;
  const Column<T>* values;
};

/// The view's validated patch lists, typed.
template <typename T>
PatchList<T> Patches(const EnvelopeView& view) {
  return {&view.patches.positions->As<uint32_t>(),
          &view.patches.values->As<T>()};
}

/// Segment-wise FOR reconstruction: out[i] = unpack(i) + refs[i / ell],
/// register-to-register per segment on the vector path.
template <typename T>
Result<Column<T>> ForReconstruct(const PackedColumn& packed,
                                 const Column<T>& refs, uint64_t ell,
                                 uint64_t n) {
  if constexpr (std::is_same_v<T, uint32_t>) {
    if (ops::HasAvx2()) {
      Column<T> out(n);
      for (uint64_t seg = 0; seg < refs.size(); ++seg) {
        const uint64_t begin = seg * ell;
        const uint64_t end = std::min<uint64_t>(begin + ell, n);
        ops::avx2::UnpackAddU32(packed.bytes.data(), packed.bytes.size(),
                                begin, end - begin, packed.bit_width,
                                refs[seg], out.data() + begin);
      }
      return out;
    }
  }
  RECOMP_ASSIGN_OR_RETURN(Column<T> out, ops::Unpack<T>(packed));
  for (uint64_t seg = 0; seg < refs.size(); ++seg) {
    const uint64_t begin = seg * ell;
    const uint64_t end = std::min<uint64_t>(begin + ell, n);
    const T ref = refs[seg];
    for (uint64_t i = begin; i < end; ++i) {
      out[i] = static_cast<T>(out[i] + ref);
    }
  }
  return out;
}

/// Fused DELTA←ZIGZAG decode of a packed column: unpack + zigzag + running
/// prefix sum in one pass.
template <typename T>
Result<Column<T>> DeltaZigZagReconstruct(const PackedColumn& packed,
                                         uint64_t n) {
  if constexpr (std::is_same_v<T, uint32_t>) {
    if (ops::HasAvx2()) {
      Column<T> out(n);
      ops::avx2::UnpackZigZagPrefixU32(packed.bytes.data(),
                                       packed.bytes.size(), n,
                                       packed.bit_width, out.data());
      return out;
    }
  }
  RECOMP_ASSIGN_OR_RETURN(Column<T> out, ops::Unpack<T>(packed));
  T acc{0};
  for (auto& v : out) {
    acc = static_cast<T>(acc + static_cast<T>(zigzag::Decode(v)));
    v = acc;
  }
  return out;
}

/// In-place zigzag decode + inclusive prefix sum over materialized codes
/// (the tail half of the fused DELTA decode after a patch pass).
template <typename T>
void ZigZagPrefixInPlace(Column<T>* col) {
  if constexpr (std::is_same_v<T, uint32_t>) {
    if (ops::HasAvx2()) {
      ops::avx2::ZigZagPrefixInPlaceU32(col->data(), col->size());
      return;
    }
  }
  T acc{0};
  for (auto& v : *col) {
    acc = static_cast<T>(acc + static_cast<T>(zigzag::Decode(v)));
    v = acc;
  }
}

/// Validates patches against the base already in `out` (reference semantics:
/// a patch only restores bits the pack width masked off). `base_of` maps an
/// output slot back to the base value the reference recursion would have
/// compared against.
template <typename T, typename BaseOf>
Status ValidatePatches(const PatchList<T>& patches, uint64_t mask, uint64_t n,
                       BaseOf base_of) {
  const Column<uint32_t>& positions = *patches.positions;
  const Column<T>& values = *patches.values;
  for (uint64_t p = 0; p < positions.size(); ++p) {
    if (positions[p] >= n) {
      return Status::Corruption("PATCHED position exceeds column");
    }
    if ((static_cast<uint64_t>(values[p]) & mask) !=
        static_cast<uint64_t>(base_of(positions[p]))) {
      return Status::Corruption("PATCHED patch disagrees with base");
    }
  }
  return Status::OK();
}

/// Writes the (already validated) patch values into `out`.
template <typename T>
void ScatterPatches(const PatchList<T>& patches, Column<T>* out) {
  const Column<uint32_t>& positions = *patches.positions;
  const Column<T>& values = *patches.values;
  if constexpr (std::is_same_v<T, uint32_t>) {
    ops::avx2::ScatterU32(out->data(), positions.data(), values.data(),
                          positions.size());
  } else {
    for (uint64_t p = 0; p < positions.size(); ++p) {
      (*out)[positions[p]] = values[p];
    }
  }
}

/// Shared run-expansion tail of the RLE kernels (the view checked that
/// there is one length per value). Reference parity: a zero length means
/// the positions column was not strictly increasing, and a uint32 positions
/// column cannot certify n >= 2^32.
template <typename T>
Result<AnyColumn> ExpandRuns(const Column<uint32_t>& lengths,
                             const Column<T>& values, uint64_t n) {
  if (n > uint64_t{0xFFFFFFFF}) {
    return Status::Corruption("RPE last position differs from envelope n");
  }
  Column<T> out(n);
  uint64_t pos = 0;
  for (uint64_t r = 0; r < values.size(); ++r) {
    if (lengths[r] == 0) {
      return Status::Corruption("RPE positions are not strictly increasing");
    }
    const uint64_t end = pos + lengths[r];
    if (end > n) return Status::Corruption("fused RLE overruns output");
    std::fill(out.begin() + pos, out.begin() + end, values[r]);
    pos = end;
  }
  if (pos != n) return Status::Corruption("fused RLE underfills output");
  return AnyColumn(std::move(out));
}

/// Validates the view's PATCHED exceptions against the unpacked base in
/// `out`, then writes them over it.
template <typename T>
Status ApplyPatches(const EnvelopeView& view, Column<T>* out) {
  const PatchList<T> patches = Patches<T>(view);
  RECOMP_RETURN_NOT_OK(ValidatePatches(
      patches, view.patches.mask, out->size(),
      [&](uint32_t pos) { return (*out)[pos]; }));
  ScatterPatches(patches, out);
  return Status::OK();
}

/// The dedicated kernel for the view's shape.
template <typename T>
Result<AnyColumn> FusedKernel(const CompressedNode& node,
                              const EnvelopeView& view) {
  const uint64_t n = node.n;
  switch (view.shape) {
    case FusedShape::kNs: {
      RECOMP_ASSIGN_OR_RETURN(Column<T> out, ops::Unpack<T>(*view.packed));
      return AnyColumn(std::move(out));
    }
    case FusedShape::kRle:
      return ExpandRuns(view.lengths->As<uint32_t>(),
                        view.runs->values.column->As<T>(), n);
    case FusedShape::kRleNs: {
      RECOMP_ASSIGN_OR_RETURN(Column<uint32_t> lengths,
                              ops::Unpack<uint32_t>(*view.packed));
      AnyColumn storage;
      RECOMP_ASSIGN_OR_RETURN(const Column<T>* values,
                              view.runs->values.Read<T>(&storage));
      return ExpandRuns(lengths, *values, n);
    }
    case FusedShape::kFor: {
      RECOMP_ASSIGN_OR_RETURN(
          Column<T> out,
          ForReconstruct(*view.packed, view.refs->As<T>(), view.ell, n));
      return AnyColumn(std::move(out));
    }
    case FusedShape::kPfor: {
      const Column<T>& refs = view.refs->As<T>();
      RECOMP_ASSIGN_OR_RETURN(Column<T> out,
                              ForReconstruct(*view.packed, refs, view.ell, n));
      // The patch list describes the *residual* (pre-reference) values:
      // undo the segment reference when validating, re-add it when applying.
      const PatchList<T> patches = Patches<T>(view);
      RECOMP_RETURN_NOT_OK(ValidatePatches(
          patches, view.patches.mask, n, [&](uint32_t pos) {
            return static_cast<T>(out[pos] - refs[pos / view.ell]);
          }));
      const Column<uint32_t>& positions = *patches.positions;
      const Column<T>& values = *patches.values;
      for (uint64_t p = 0; p < positions.size(); ++p) {
        out[positions[p]] =
            static_cast<T>(refs[positions[p] / view.ell] + values[p]);
      }
      return AnyColumn(std::move(out));
    }
    case FusedShape::kPatchedNs:
    case FusedShape::kDeltaZigZagPatchedNs: {
      RECOMP_ASSIGN_OR_RETURN(Column<T> out, ops::Unpack<T>(*view.packed));
      RECOMP_RETURN_NOT_OK(ApplyPatches(view, &out));
      if (view.shape == FusedShape::kDeltaZigZagPatchedNs) {
        ZigZagPrefixInPlace(&out);
      }
      return AnyColumn(std::move(out));
    }
    case FusedShape::kDeltaZigZagNs: {
      RECOMP_ASSIGN_OR_RETURN(Column<T> out,
                              DeltaZigZagReconstruct<T>(*view.packed, n));
      return AnyColumn(std::move(out));
    }
    case FusedShape::kGeneric:
      break;
  }
  return DecompressNode(node);
}

}  // namespace

Result<AnyColumn> FusedDecompressNode(const CompressedNode& node) {
  RECOMP_ASSIGN_OR_RETURN(const EnvelopeView view, ViewEnvelope(node));
  Result<AnyColumn> decoded =
      view.shape == FusedShape::kGeneric
          ? DecompressNode(node)
          : internal::DispatchUnsignedTypeId(
                node.out_type, [&](auto tag) -> Result<AnyColumn> {
                  return FusedKernel<typename decltype(tag)::type>(node, view);
                });
  if (decoded.ok() && obs::Enabled()) CountDecode(view.shape, node);
  return decoded;
}

Result<AnyColumn> FusedDecompress(const CompressedColumn& compressed) {
  return FusedDecompressNode(compressed.root());
}

}  // namespace recomp
