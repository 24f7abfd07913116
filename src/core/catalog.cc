#include "core/catalog.h"

namespace recomp {

SchemeDescriptor MakeRle() { return Rpe().With("positions", Delta()); }

SchemeDescriptor MakeRleNs() {
  return Rpe()
      .With("positions", Delta().With("deltas", Ns()))
      .With("values", Ns());
}

SchemeDescriptor MakeRleDelta() {
  // DELTA over the run values leaves one wide head delta (run_values[0] - 0);
  // PATCHED absorbs it so the packed width reflects the small steps — the
  // paper's L0 patch extension applied inside its own intro example.
  return Rpe()
      .With("positions", Delta().With("deltas", Ns()))
      .With("values",
            Delta().With("deltas",
                         ZigZag().With("recoded",
                                       Patched().With("base", Ns()))));
}

SchemeDescriptor MakeFor(uint64_t segment_length, int width) {
  return Modeled(Step(segment_length)).With("residual", Ns(width));
}

SchemeDescriptor MakePfor(uint64_t segment_length) {
  return Modeled(Step(segment_length))
      .With("residual", Patched().With("base", Ns()));
}

SchemeDescriptor MakeLfor(uint64_t segment_length) {
  return Modeled(Plin(segment_length)).With("residual", Ns());
}

SchemeDescriptor MakeDeltaNs() {
  return Delta().With("deltas", ZigZag().With("recoded", Ns()));
}

SchemeDescriptor MakeDeltaVByte() {
  return Delta().With("deltas", ZigZag().With("recoded", VByte()));
}

SchemeDescriptor MakeDictNs() { return Dict().With("codes", Ns()); }

const std::vector<CatalogEntry>& ClassicCatalog() {
  static const std::vector<CatalogEntry> kCatalog = {
      {"RLE",
       "run-length encoding == RPE with DELTA-compressed run positions "
       "(paper, §II-A)",
       MakeRle()},
      {"RLE-NS", "RLE with bit-packed lengths and values", MakeRleNs()},
      {"RLE-DELTA",
       "the intro's shipped-orders composite: RLE, then DELTA on run values",
       MakeRleDelta()},
      {"RPE", "run-position encoding: RLE already partially decompressed",
       Rpe()},
      {"FOR",
       "frame of reference == STEP model + NS residual (paper, §II-B)",
       MakeFor()},
      {"PFOR", "FOR with an L0-patched residual", MakePfor()},
      {"LFOR", "FOR with a piecewise-linear model", MakeLfor()},
      {"DELTA-NS", "delta, zigzag, bit-pack", MakeDeltaNs()},
      {"DELTA-VBYTE", "delta, zigzag, variable-byte", MakeDeltaVByte()},
      {"DICT-NS", "sorted dictionary with bit-packed codes", MakeDictNs()},
      {"NS", "plain null suppression", Ns()},
      {"VBYTE", "plain variable-byte", VByte()},
  };
  return kCatalog;
}

Result<SchemeDescriptor> CatalogLookup(const std::string& name) {
  for (const CatalogEntry& entry : ClassicCatalog()) {
    if (entry.name == name) return entry.descriptor;
  }
  return Status::KeyError("no catalog entry named '" + name + "'");
}

}  // namespace recomp
