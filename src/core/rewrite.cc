#include "core/rewrite.h"

#include "core/fused.h"
#include "core/pipeline.h"
#include "util/string_util.h"

namespace recomp {

namespace {

/// Walks `path` and returns the named CompressedPart (mutable).
Result<CompressedPart*> FindPart(CompressedNode* node,
                                 const std::string& path) {
  CompressedNode* current = node;
  size_t begin = 0;
  while (true) {
    const size_t slash = path.find('/', begin);
    const std::string component = path.substr(
        begin, slash == std::string::npos ? std::string::npos : slash - begin);
    auto it = current->parts.find(component);
    if (it == current->parts.end()) {
      return Status::KeyError(StringFormat("no part '%s' along path '%s'",
                                           component.c_str(), path.c_str()));
    }
    if (slash == std::string::npos) return &it->second;
    if (it->second.is_terminal() || !it->second.sub) {
      return Status::KeyError(StringFormat(
          "part path '%s' descends into a terminal column", path.c_str()));
    }
    current = it->second.sub.get();
    begin = slash + 1;
  }
}

}  // namespace

Result<CompressedColumn> PeelPart(const CompressedColumn& compressed,
                                  const std::string& path) {
  CompressedColumn out = compressed.Clone();
  RECOMP_ASSIGN_OR_RETURN(CompressedPart * part, FindPart(&out.root(), path));
  if (part->is_terminal()) {
    return Status::InvalidArgument(
        StringFormat("part '%s' is already terminal", path.c_str()));
  }
  RECOMP_ASSIGN_OR_RETURN(AnyColumn column, FusedDecompressNode(*part->sub));
  part->sub.reset();
  part->column = std::move(column);
  return out;
}

Result<CompressedColumn> PushPart(const CompressedColumn& compressed,
                                  const std::string& path,
                                  const SchemeDescriptor& child) {
  RECOMP_RETURN_NOT_OK(child.Validate());
  CompressedColumn out = compressed.Clone();
  RECOMP_ASSIGN_OR_RETURN(CompressedPart * part, FindPart(&out.root(), path));
  if (!part->is_terminal()) {
    return Status::InvalidArgument(StringFormat(
        "part '%s' is already composed; peel it first", path.c_str()));
  }
  if (part->column->is_packed()) {
    return Status::InvalidArgument(StringFormat(
        "part '%s' is bit-packed and cannot be composed further",
        path.c_str()));
  }
  RECOMP_ASSIGN_OR_RETURN(CompressedNode sub,
                          CompressNode(*part->column, child));
  part->column.reset();
  part->sub = std::make_unique<CompressedNode>(std::move(sub));
  return out;
}

namespace {

Status PeelAllInNode(CompressedNode* node) {
  for (auto& [name, part] : node->parts) {
    if (part.is_terminal()) continue;
    RECOMP_ASSIGN_OR_RETURN(AnyColumn column, FusedDecompressNode(*part.sub));
    part.sub.reset();
    part.column = std::move(column);
  }
  return Status::OK();
}

}  // namespace

Result<CompressedColumn> PeelAll(const CompressedColumn& compressed) {
  CompressedColumn out = compressed.Clone();
  RECOMP_RETURN_NOT_OK(PeelAllInNode(&out.root()));
  return out;
}

}  // namespace recomp
