// The compressed envelope: a recursive tree of "pure" part columns.
//
// Compressing with a composite descriptor yields a CompressedNode per
// descriptor node; each part is either a terminal column or a nested node
// produced by a child descriptor. The envelope is self-describing: it
// records the resolved descriptor and the length/type each node reproduces.

#ifndef RECOMP_CORE_COMPRESSED_H_
#define RECOMP_CORE_COMPRESSED_H_

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "columnar/any_column.h"
#include "core/descriptor.h"

namespace recomp {

struct CompressedNode;

/// The most rows a column or node may claim. A wire buffer or a damaged
/// envelope can claim any count; the reader and the decoders refuse more
/// than this before a count sizes a buffer or multiplies a width, so no
/// claim can wrap a byte count or reach a length_error.
inline constexpr uint64_t kMaxClaimedRows = uint64_t{1} << 40;

/// One named part of a compressed form: a terminal column, or the result of
/// compressing that part further with a child descriptor.
struct CompressedPart {
  std::optional<AnyColumn> column;
  std::unique_ptr<CompressedNode> sub;

  bool is_terminal() const { return column.has_value(); }
  uint64_t PayloadBytes() const;
  CompressedPart Clone() const;
};

/// The compressed form produced by one descriptor node.
struct CompressedNode {
  /// This node's scheme with resolved parameters (children always empty;
  /// composition is represented structurally by `parts`).
  SchemeDescriptor scheme;
  /// Length of the column this node decompresses to.
  uint64_t n = 0;
  /// Element type this node decompresses to.
  TypeId out_type = TypeId::kUInt32;
  std::map<std::string, CompressedPart> parts;

  /// Sum of terminal column payloads beneath this node.
  uint64_t PayloadBytes() const;

  /// Reconstructs the full descriptor including children.
  SchemeDescriptor FullDescriptor() const;

  CompressedNode Clone() const;
};

/// The terminal plain column behind a stored-plain ID envelope's "data"
/// part — the shape the streaming store serves for uncompressed tail chunks
/// and for rolled chunks whose seal job has not landed — or nullptr when the
/// node is not that shape: wrong scheme, part missing, composed, packed, of
/// an unexpected type, or of the wrong length (the length check
/// IdScheme::Decompress would make; a deserialized buffer can claim any n,
/// and in-place readers must not index past the real data). The envelope
/// view (core/envelope.h) names this shape for the exec fast paths, and the
/// store's recompressor keys on the same view through this function, so
/// "stored plain" cannot mean different things per layer.
const AnyColumn* StoredPlainData(const CompressedNode& node);

/// A whole compressed column.
class CompressedColumn {
 public:
  CompressedColumn() = default;
  explicit CompressedColumn(CompressedNode root) : root_(std::move(root)) {}

  const CompressedNode& root() const { return root_; }
  CompressedNode& root() { return root_; }

  /// Logical row count.
  uint64_t size() const { return root_.n; }

  /// Element type of the decompressed column.
  TypeId type() const { return root_.out_type; }

  /// Footprint of the uncompressed column.
  uint64_t UncompressedBytes() const {
    return root_.n * static_cast<uint64_t>(TypeIdByteWidth(root_.out_type));
  }

  /// Sum of all terminal part payloads (descriptor metadata excluded; it is
  /// O(nodes), not O(n)).
  uint64_t PayloadBytes() const { return root_.PayloadBytes(); }

  /// UncompressedBytes / PayloadBytes; infinity-free (returns 0 for empty).
  double Ratio() const;

  /// The resolved composite descriptor.
  SchemeDescriptor Descriptor() const { return root_.FullDescriptor(); }

  /// Multi-line structural dump with per-part footprints.
  std::string ToString() const;

  CompressedColumn Clone() const { return CompressedColumn(root_.Clone()); }

 private:
  CompressedNode root_;
};

}  // namespace recomp

#endif  // RECOMP_CORE_COMPRESSED_H_
