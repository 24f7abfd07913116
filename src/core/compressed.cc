#include "core/compressed.h"

#include "util/string_util.h"

namespace recomp {

uint64_t CompressedPart::PayloadBytes() const {
  if (is_terminal()) return column->ByteSize();
  return sub ? sub->PayloadBytes() : 0;
}

CompressedPart CompressedPart::Clone() const {
  CompressedPart copy;
  copy.column = column;
  if (sub) copy.sub = std::make_unique<CompressedNode>(sub->Clone());
  return copy;
}

uint64_t CompressedNode::PayloadBytes() const {
  uint64_t total = 0;
  for (const auto& [name, part] : parts) total += part.PayloadBytes();
  return total;
}

SchemeDescriptor CompressedNode::FullDescriptor() const {
  SchemeDescriptor desc = scheme;
  for (const auto& [name, part] : parts) {
    if (!part.is_terminal() && part.sub) {
      desc.children[name] = part.sub->FullDescriptor();
    }
  }
  return desc;
}

CompressedNode CompressedNode::Clone() const {
  CompressedNode copy;
  copy.scheme = scheme;
  copy.n = n;
  copy.out_type = out_type;
  for (const auto& [name, part] : parts) copy.parts[name] = part.Clone();
  return copy;
}

double CompressedColumn::Ratio() const {
  const uint64_t payload = PayloadBytes();
  if (payload == 0) return 0.0;
  return static_cast<double>(UncompressedBytes()) /
         static_cast<double>(payload);
}

namespace {

void DumpNode(const CompressedNode& node, const std::string& indent,
              std::string* out) {
  out->append(StringFormat(
      "%s n=%llu %s (%s)\n", node.scheme.ToString().c_str(),
      static_cast<unsigned long long>(node.n), TypeIdName(node.out_type),
      HumanBytes(node.PayloadBytes()).c_str()));
  for (auto it = node.parts.begin(); it != node.parts.end(); ++it) {
    const bool last = std::next(it) == node.parts.end();
    out->append(indent);
    out->append(last ? "`- " : "|- ");
    out->append(it->first);
    out->append(": ");
    const std::string child_indent = indent + (last ? "   " : "|  ");
    if (it->second.is_terminal()) {
      out->append(it->second.column->ToString());
      out->append(StringFormat(
          " (%s)\n", HumanBytes(it->second.column->ByteSize()).c_str()));
    } else {
      DumpNode(*it->second.sub, child_indent, out);
    }
  }
}

}  // namespace

std::string CompressedColumn::ToString() const {
  std::string out;
  DumpNode(root_, "", &out);
  return out;
}

}  // namespace recomp
