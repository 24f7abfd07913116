// The envelope view: one validated reading of a compressed node's shape.
//
// Decoding, filtering, aggregating, probing and semi-joining a chunk all
// need the same thing first: which named parts the node has, which are
// terminal and which composed, and whether their element types and lengths
// agree with the envelope. ViewEnvelope reads that once — for the fused
// decode kernels (core/fused.h) and every exec operator alike — and hands
// back pointers into the node; nothing is copied or allocated.
//
// One grammar names the fused shapes. It reads a CompressedNode and a
// SchemeDescriptor alike: a composed part is a child descriptor, a terminal
// plain part is a part the descriptor leaves uncomposed, and NS{packed} is
// an NS with no children. ViewEnvelope binds and checks the parts of the
// shape it matched, and ClassifyFusedDescriptor is the same grammar read
// over a descriptor, so the analyzer prices exactly the shapes the kernels
// decode.
//
// A node whose parts match a known shape but fail a structural check is
// refused, exactly as FusedDecompress refuses it (FusedDecompress reads
// through this view too). A node matching no shape gets an empty view
// (kGeneric, no operator view) and is left to the per-scheme reference
// recursion, which validates as it decodes. Checks that need a full pass
// over a part belong to the loops that walk it, and the pushdown walks live
// here, once each: the run walk (ForEachRun: run ends rise strictly to n),
// the dictionary read (ReadDict: the dictionary is sorted) and the FOR
// segment walk (ForSegments: the L∞ window and its wrap rule). Patch
// positions are the kernels' to check.

#ifndef RECOMP_CORE_ENVELOPE_H_
#define RECOMP_CORE_ENVELOPE_H_

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "core/compressed.h"
#include "core/fused.h"
#include "ops/pack.h"
#include "util/bits.h"
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

/// The run walk: reads a RunsView's values and ends, decoding a composed
/// part, and calls fn(begin, end, value) for every run as the rows
/// [begin, end), refusing run ends that do not strictly increase to exactly
/// `n` — the content check of a RunsView. T is the envelope's type.
template <typename T, typename Fn>
Status ForEachRun(const RunsView& runs, uint64_t n, Fn&& fn) {
  AnyColumn values_storage, ends_storage;
  RECOMP_ASSIGN_OR_RETURN(const Column<T>* values,
                          runs.values.Read<T>(&values_storage));
  RECOMP_ASSIGN_OR_RETURN(const Column<uint32_t>* ends,
                          runs.ends.Read<uint32_t>(&ends_storage));
  uint64_t begin = 0;
  for (uint64_t r = 0; r < values->size(); ++r) {
    const uint64_t end = (*ends)[r];
    if (end <= begin) {
      return Status::Corruption("RPE positions are not strictly increasing");
    }
    if (end > n) {
      return Status::Corruption("RPE positions run past envelope n");
    }
    fn(begin, end, (*values)[r]);
    begin = end;
  }
  if (begin != n) {
    return Status::Corruption("RPE last position differs from envelope n");
  }
  return Status::OK();
}

/// The dictionary read: reads a DictView's dictionary and codes, decoding a
/// composed part, and returns fn(dictionary, codes), refusing a dictionary
/// whose entries are not sorted — the content check of a DictView, which
/// extrema pushdowns rely on to read extreme values off extreme codes. The
/// codes are fn's to bound: each loop over them checks them against the
/// dictionary's size. T is the envelope's type.
template <typename T, typename Fn>
auto ReadDict(const DictView& dict, Fn&& fn)
    -> decltype(fn(std::declval<const Column<T>&>(),
                   std::declval<const Column<uint32_t>&>())) {
  AnyColumn dictionary_storage, codes_storage;
  RECOMP_ASSIGN_OR_RETURN(const Column<T>* dictionary,
                          dict.dictionary.Read<T>(&dictionary_storage));
  RECOMP_ASSIGN_OR_RETURN(const Column<uint32_t>* codes,
                          dict.codes.Read<uint32_t>(&codes_storage));
  for (uint64_t d = 1; d < dictionary->size(); ++d) {
    if ((*dictionary)[d] < (*dictionary)[d - 1]) {
      return Status::Corruption("DICT dictionary is not sorted");
    }
  }
  return fn(*dictionary, *codes);
}

/// One segment of a FOR view: the rows [begin, end), each `ref` plus a
/// residual of the payload's width w.
template <typename T>
struct ForSegment {
  uint64_t begin = 0;
  uint64_t end = 0;
  T ref{};
  /// The L∞ window [lo, hi] = [ref, ref + 2^w - 1] holding every value of
  /// the segment — when `bounded`. FOR decodes mod 2^bits(T), so a window
  /// that runs past T's range bounds nothing (the values may wrap below
  /// `ref`), and pushdowns decode such a segment instead.
  uint64_t lo = 0;
  uint64_t hi = 0;
  bool bounded = false;
};

/// The FOR segment walk over a kFor view of `n` rows: segments in order, by
/// value, and each segment's residuals unpacked on demand into one buffer
/// sized by rows (ell is input: an envelope may claim any segment length).
template <typename T>
class ForSegments {
 public:
  ForSegments(const EnvelopeView& view, uint64_t n)
      : packed_(*view.packed),
        refs_(view.refs->As<T>()),
        ell_(view.ell),
        n_(n),
        mask_(bits::LowMask64(view.packed->bit_width)),
        residuals_(std::min(view.ell, n)) {}

  uint64_t size() const { return refs_.size(); }

  ForSegment<T> operator[](uint64_t s) const {
    ForSegment<T> segment;
    segment.begin = s * ell_;
    segment.end = std::min(segment.begin + ell_, n_);
    segment.ref = refs_[s];
    segment.lo = static_cast<uint64_t>(segment.ref);
    segment.hi = segment.lo + mask_;
    segment.bounded = mask_ <= std::numeric_limits<T>::max() - segment.lo;
    return segment;
  }

  /// `segment`'s end - begin residuals; valid until the next call.
  Result<const T*> Residuals(const ForSegment<T>& segment) {
    RECOMP_RETURN_NOT_OK(ops::UnpackRange(packed_, segment.begin, segment.end,
                                          residuals_.data()));
    return static_cast<const T*>(residuals_.data());
  }

 private:
  const PackedColumn& packed_;
  const Column<T>& refs_;
  const uint64_t ell_;
  const uint64_t n_;
  const uint64_t mask_;
  Column<T> residuals_;
};

}  // namespace recomp

#endif  // RECOMP_CORE_ENVELOPE_H_
