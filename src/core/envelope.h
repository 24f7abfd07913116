// The envelope view: one validated reading of a compressed node's shape.
//
// Decoding, filtering, aggregating, probing and semi-joining a chunk all
// need the same thing first: which named parts the node has, which are
// terminal and which composed, and whether their element types and lengths
// agree with the envelope. ViewEnvelope reads that once — for the fused
// decode kernels (core/fused.h) and every exec operator alike — and hands
// back pointers into the node; nothing is copied or allocated.
//
// A node whose parts match a known shape but fail a structural check is
// refused, exactly as FusedDecompress refuses it (FusedDecompress reads
// through this view too). A node matching no shape gets an empty view
// (kGeneric, no operator view) and is left to the per-scheme reference
// recursion, which validates as it decodes. Checks that need a full pass
// over a part — run ends strictly increasing to n, codes inside a sorted
// dictionary, patch positions — belong to the loops that walk the part
// anyway (ForEachRun below, the kernels, the operators).

#ifndef RECOMP_CORE_ENVELOPE_H_
#define RECOMP_CORE_ENVELOPE_H_

#include <limits>
#include <optional>

#include "core/compressed.h"
#include "core/fused.h"
#include "util/result.h"

namespace recomp {

/// A part whose element type and length the view checked: a terminal plain
/// column read in place, or a composed sub-node decoded on demand.
struct PartView {
  const AnyColumn* column = nullptr;
  const CompressedNode* sub = nullptr;

  uint64_t size() const { return column != nullptr ? column->size() : sub->n; }

  /// The part's values: the terminal column itself, or the composed part
  /// decoded (FusedDecompressNode) into `*storage`. T must be the type the
  /// view checked.
  template <typename T>
  Result<const Column<T>*> Read(AnyColumn* storage) const {
    if (column != nullptr) return &column->As<T>();
    RECOMP_ASSIGN_OR_RETURN(*storage, FusedDecompressNode(*sub));
    return &storage->As<T>();
  }
};

/// RPE: one value per run (the envelope's type) and each run's exclusive
/// end row (uint32), equally many.
struct RunsView {
  PartView values;
  PartView ends;
};

/// DICT: one uint32 code per row into a dictionary of the envelope's type.
struct DictView {
  PartView codes;
  PartView dictionary;
  /// The codes' payload when they are NS(packed), for reading one in place.
  const PackedColumn* packed_codes = nullptr;
};

/// PATCHED's exception lists: uint32 positions and values of the envelope's
/// type, equally many; `mask` keeps the bits the packed base holds.
struct PatchView {
  const AnyColumn* positions = nullptr;
  const AnyColumn* values = nullptr;
  uint64_t mask = 0;
};

/// One node's validated shape. Fields the shape does not use stay null.
struct EnvelopeView {
  /// The fused kernel that decodes the node.
  FusedShape shape = FusedShape::kGeneric;
  /// The NS payload the kernel unpacks, n rows: the node itself (kNs), the
  /// FOR residual, the PATCHED base or the ZIGZAG deltas; for kRleNs the
  /// run lengths, one per run.
  const PackedColumn* packed = nullptr;
  /// kFor / kPfor: one reference (the envelope's type) per `ell` rows.
  const AnyColumn* refs = nullptr;
  uint64_t ell = 0;
  /// kPatchedNs / kPfor / kDeltaZigZagPatchedNs.
  PatchView patches;
  /// kRle: the run lengths, plain uint32.
  const AnyColumn* lengths = nullptr;

  /// ID{data} whose data is a terminal plain column of the envelope's type
  /// and length: the stored-plain shape (StoredPlainData).
  const AnyColumn* stored_plain = nullptr;
  std::optional<RunsView> runs;
  std::optional<DictView> dict;
};

/// Names and validates `node`'s top-level shape.
Result<EnvelopeView> ViewEnvelope(const CompressedNode& node);

/// Calls fn(begin, end, value) for every run as the rows [begin, end),
/// refusing run ends that do not strictly increase to exactly `n` — the
/// content check of a RunsView, made by the loops that walk the runs.
template <typename T, typename Fn>
Status ForEachRun(const Column<T>& values, const Column<uint32_t>& ends,
                  uint64_t n, Fn&& fn) {
  uint64_t begin = 0;
  for (uint64_t r = 0; r < values.size(); ++r) {
    if (ends[r] <= begin) {
      return Status::Corruption("RPE positions are not strictly increasing");
    }
    if (ends[r] > n) {
      return Status::Corruption("RPE positions run past envelope n");
    }
    fn(begin, uint64_t{ends[r]}, values[r]);
    begin = ends[r];
  }
  if (begin != n) {
    return Status::Corruption("RPE last position differs from envelope n");
  }
  return Status::OK();
}

/// True when a FOR segment's L∞ window [ref, ref + mask] runs past T's
/// range. FOR decodes mod 2^bits(T), so such a segment's values may wrap
/// below `ref` and the window bounds nothing: pushdowns decode it instead.
template <typename T>
bool ForWindowWraps(uint64_t ref, uint64_t mask) {
  return mask > std::numeric_limits<T>::max() - ref;
}

/// The content check of a DictView's dictionary: range and extrema
/// pushdowns translate values to codes, which needs sorted entries.
template <typename T>
Status CheckDictionaryOrder(const Column<T>& dictionary) {
  for (uint64_t d = 1; d < dictionary.size(); ++d) {
    if (dictionary[d] < dictionary[d - 1]) {
      return Status::Corruption("DICT dictionary is not sorted");
    }
  }
  return Status::OK();
}

}  // namespace recomp

#endif  // RECOMP_CORE_ENVELOPE_H_
