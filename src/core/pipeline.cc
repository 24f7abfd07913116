#include "core/pipeline.h"

#include "schemes/scheme.h"
#include "util/string_util.h"

namespace recomp {

Result<CompressedNode> CompressNode(const AnyColumn& input,
                                    const SchemeDescriptor& desc) {
  const Scheme* scheme = GetScheme(desc.kind);
  RECOMP_ASSIGN_OR_RETURN(CompressOutput output,
                          scheme->Compress(input, desc));

  CompressedNode node;
  node.scheme = std::move(output.resolved);
  node.n = input.size();
  node.out_type = input.type();

  for (auto& [name, column] : output.parts) {
    auto child_it = desc.children.find(name);
    if (child_it == desc.children.end()) {
      CompressedPart part;
      part.column = std::move(column);
      node.parts.emplace(name, std::move(part));
      continue;
    }
    if (column.is_packed()) {
      return Status::InvalidArgument(StringFormat(
          "part '%s' of %s is bit-packed and cannot be composed further",
          name.c_str(), SchemeKindName(desc.kind)));
    }
    RECOMP_ASSIGN_OR_RETURN(CompressedNode sub,
                            CompressNode(column, child_it->second));
    CompressedPart part;
    part.sub = std::make_unique<CompressedNode>(std::move(sub));
    node.parts.emplace(name, std::move(part));
  }

  // Reject children naming parts the scheme never produced.
  for (const auto& [name, child] : desc.children) {
    if (node.parts.find(name) == node.parts.end()) {
      return Status::InvalidArgument(StringFormat(
          "%s produces no part named '%s'", SchemeKindName(desc.kind),
          name.c_str()));
    }
  }
  return node;
}

Result<AnyColumn> DecompressNode(const CompressedNode& node) {
  if (node.n > kMaxClaimedRows) {
    return Status::Corruption("implausible row count");
  }
  PartsMap parts;
  for (const auto& [name, part] : node.parts) {
    if (part.is_terminal()) {
      parts.emplace(name, *part.column);
    } else if (part.sub) {
      RECOMP_ASSIGN_OR_RETURN(AnyColumn column, DecompressNode(*part.sub));
      parts.emplace(name, std::move(column));
    } else {
      return Status::Corruption("compressed part '" + name + "' is empty");
    }
  }
  const Scheme* scheme = GetScheme(node.scheme.kind);
  DecompressContext ctx;
  ctx.n = node.n;
  ctx.out_type = node.out_type;
  RECOMP_ASSIGN_OR_RETURN(AnyColumn out,
                          scheme->Decompress(parts, node.scheme, ctx));
  // Every consumer indexes the result by the envelope's own type and length.
  if (out.is_packed() || out.type() != node.out_type || out.size() != node.n) {
    return Status::Corruption("decoded column differs from the envelope");
  }
  return out;
}

Result<CompressedColumn> Compress(const AnyColumn& input,
                                  const SchemeDescriptor& desc) {
  RECOMP_RETURN_NOT_OK(desc.Validate());
  RECOMP_ASSIGN_OR_RETURN(CompressedNode root, CompressNode(input, desc));
  return CompressedColumn(std::move(root));
}

Result<AnyColumn> Decompress(const CompressedColumn& compressed) {
  return DecompressNode(compressed.root());
}

}  // namespace recomp
