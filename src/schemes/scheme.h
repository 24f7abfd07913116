// The Scheme interface: one column in, named part columns out.
//
// A primitive scheme maps a plain column to a map of "pure" part columns
// (the paper's columnar view of compressed forms) and back. Part-wise
// composition — recursively compressing parts — is the pipeline's job
// (core/pipeline.h), not the schemes'; each scheme only knows its own parts.

#ifndef RECOMP_SCHEMES_SCHEME_H_
#define RECOMP_SCHEMES_SCHEME_H_

#include <map>
#include <string>
#include <vector>

#include "columnar/any_column.h"
#include "core/descriptor.h"
#include "util/result.h"

namespace recomp {

/// Named part columns of one scheme's compressed form.
using PartsMap = std::map<std::string, AnyColumn>;

/// Result of primitive compression: the parts plus the descriptor with all
/// auto parameters resolved to the concrete values decompression needs
/// (children are left empty; the pipeline fills them in).
struct CompressOutput {
  PartsMap parts;
  SchemeDescriptor resolved;
};

/// Envelope facts a scheme may need when reversing: the length and type of
/// the column it must reproduce.
struct DecompressContext {
  uint64_t n = 0;
  TypeId out_type = TypeId::kUInt32;
};

/// A primitive compression scheme (stateless; one singleton per kind).
class Scheme {
 public:
  virtual ~Scheme() = default;

  virtual SchemeKind kind() const = 0;

  /// The part names this scheme produces, in canonical order, given resolved
  /// parameters.
  virtual std::vector<std::string> PartNames(
      const SchemeDescriptor& desc) const = 0;

  /// Compresses a plain column. `desc` is this scheme's own node (children
  /// ignored); zero-valued parameters are resolved from the data and
  /// recorded in the returned descriptor.
  virtual Result<CompressOutput> Compress(
      const AnyColumn& input, const SchemeDescriptor& desc) const = 0;

  /// Reverses Compress given fully materialized parts and the resolved
  /// descriptor. This is the *reference* ("fused") decompression; the
  /// operator-plan strategy lives in core/plan_builder.h.
  virtual Result<AnyColumn> Decompress(const PartsMap& parts,
                                       const SchemeDescriptor& desc,
                                       const DecompressContext& ctx) const = 0;
};

/// Returns the singleton implementation for `kind` (never null).
const Scheme* GetScheme(SchemeKind kind);

/// Fetches a part by name, failing with KeyError when absent.
Result<const AnyColumn*> GetPart(const PartsMap& parts,
                                 const std::string& name);

}  // namespace recomp

#endif  // RECOMP_SCHEMES_SCHEME_H_
