#include "core/descriptor.h"

#include <cctype>

#include "util/string_util.h"

namespace recomp {

const char* SchemeKindName(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kId:
      return "ID";
    case SchemeKind::kZigZag:
      return "ZIGZAG";
    case SchemeKind::kNs:
      return "NS";
    case SchemeKind::kVByte:
      return "VBYTE";
    case SchemeKind::kDelta:
      return "DELTA";
    case SchemeKind::kRpe:
      return "RPE";
    case SchemeKind::kDict:
      return "DICT";
    case SchemeKind::kStep:
      return "STEP";
    case SchemeKind::kPlin:
      return "PLIN";
    case SchemeKind::kModeled:
      return "MODELED";
    case SchemeKind::kPatched:
      return "PATCHED";
  }
  return "?";
}

bool SchemeKindFromName(const std::string& name, SchemeKind* out) {
  for (int i = 0; i < kNumSchemeKinds; ++i) {
    SchemeKind k = static_cast<SchemeKind>(i);
    if (name == SchemeKindName(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

SchemeDescriptor&& SchemeDescriptor::With(const std::string& part,
                                          SchemeDescriptor child) && {
  children[part] = std::move(child);
  return std::move(*this);
}

SchemeDescriptor SchemeDescriptor::With(const std::string& part,
                                        SchemeDescriptor child) const& {
  SchemeDescriptor copy = *this;
  copy.children[part] = std::move(child);
  return copy;
}

bool SchemeDescriptor::operator==(const SchemeDescriptor& other) const {
  return kind == other.kind && params == other.params && args == other.args &&
         children == other.children;
}

uint64_t SchemeDescriptor::NodeCount() const {
  uint64_t count = 1;
  for (const auto& a : args) count += a.NodeCount();
  for (const auto& [name, child] : children) count += child.NodeCount();
  return count;
}

std::string SchemeDescriptor::ToString() const {
  std::string out = SchemeKindName(kind);
  if (kind == SchemeKind::kModeled) {
    out += "(";
    out += args.empty() ? std::string("?") : args[0].ToString();
    out += ")";
  } else if (params.width != 0) {
    out += StringFormat("(%d)", params.width);
  } else if (params.segment_length != 0) {
    out += StringFormat("(%llu)",
                        static_cast<unsigned long long>(params.segment_length));
  }
  if (!children.empty()) {
    std::vector<std::string> rendered;
    rendered.reserve(children.size());
    for (const auto& [name, child] : children) {
      rendered.push_back(name + ":" + child.ToString());
    }
    out += "{" + Join(rendered, ",") + "}";
  }
  return out;
}

Status SchemeDescriptor::Validate() const {
  if (kind == SchemeKind::kModeled) {
    if (args.size() != 1) {
      return Status::InvalidArgument("MODELED requires exactly one model arg");
    }
    if (args[0].kind != SchemeKind::kStep &&
        args[0].kind != SchemeKind::kPlin) {
      return Status::InvalidArgument(
          "MODELED model must be STEP or PLIN, got " +
          std::string(SchemeKindName(args[0].kind)));
    }
    if (!args[0].children.empty()) {
      return Status::InvalidArgument(
          "a MODELED model argument cannot itself have children");
    }
    RECOMP_RETURN_NOT_OK(args[0].Validate());
  } else if (!args.empty()) {
    return Status::InvalidArgument(
        StringFormat("%s takes no scheme arguments", SchemeKindName(kind)));
  }
  if (params.width < 0 || params.width > 64) {
    return Status::InvalidArgument(
        StringFormat("width %d outside [0, 64]", params.width));
  }
  const bool takes_width =
      kind == SchemeKind::kNs || kind == SchemeKind::kPatched;
  const bool takes_ell =
      kind == SchemeKind::kStep || kind == SchemeKind::kPlin;
  if (params.width != 0 && !takes_width) {
    return Status::InvalidArgument(
        StringFormat("%s takes no width parameter", SchemeKindName(kind)));
  }
  if (params.segment_length != 0 && !takes_ell) {
    return Status::InvalidArgument(StringFormat(
        "%s takes no segment-length parameter", SchemeKindName(kind)));
  }
  if (kind == SchemeKind::kPlin && params.segment_length == 1) {
    return Status::InvalidArgument("PLIN needs segments of at least 2 values");
  }
  for (const auto& [name, child] : children) {
    if (name.empty()) {
      return Status::InvalidArgument("child part name must be non-empty");
    }
    RECOMP_RETURN_NOT_OK(child.Validate());
  }
  if (kind == SchemeKind::kId && !children.empty()) {
    return Status::InvalidArgument("ID produces no parts to compose with");
  }
  return Status::OK();
}

namespace {

/// Recursive-descent parser over the ToString grammar.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<SchemeDescriptor> Parse() {
    RECOMP_ASSIGN_OR_RETURN(SchemeDescriptor desc, ParseDescriptor());
    SkipSpace();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument(
          StringFormat("trailing input at offset %zu in '%s'", pos_,
                       text_.c_str()));
    }
    return desc;
  }

 private:
  Result<SchemeDescriptor> ParseDescriptor() {
    SkipSpace();
    std::string name;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      name += text_[pos_++];
    }
    SchemeDescriptor desc;
    if (!SchemeKindFromName(name, &desc.kind)) {
      return Status::InvalidArgument("unknown scheme name '" + name + "'");
    }
    SkipSpace();
    if (Peek() == '(') {
      ++pos_;
      SkipSpace();
      if (desc.kind == SchemeKind::kModeled) {
        RECOMP_ASSIGN_OR_RETURN(SchemeDescriptor model, ParseDescriptor());
        desc.args.push_back(std::move(model));
      } else {
        RECOMP_ASSIGN_OR_RETURN(uint64_t value, ParseInteger());
        if (desc.kind == SchemeKind::kStep || desc.kind == SchemeKind::kPlin) {
          desc.params.segment_length = value;
        } else {
          desc.params.width = static_cast<int>(value);
        }
      }
      SkipSpace();
      if (Peek() != ')') {
        return Status::InvalidArgument("expected ')' in descriptor");
      }
      ++pos_;
      SkipSpace();
    }
    if (Peek() == '{') {
      ++pos_;
      while (true) {
        SkipSpace();
        std::string part;
        while (pos_ < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '_')) {
          part += text_[pos_++];
        }
        SkipSpace();
        if (part.empty() || Peek() != ':') {
          return Status::InvalidArgument("expected 'part:' inside '{...}'");
        }
        ++pos_;
        RECOMP_ASSIGN_OR_RETURN(SchemeDescriptor child, ParseDescriptor());
        desc.children[part] = std::move(child);
        SkipSpace();
        if (Peek() == ',') {
          ++pos_;
          continue;
        }
        if (Peek() == '}') {
          ++pos_;
          break;
        }
        return Status::InvalidArgument("expected ',' or '}' in children list");
      }
    }
    return desc;
  }

  Result<uint64_t> ParseInteger() {
    SkipSpace();
    if (pos_ >= text_.size() ||
        !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      return Status::InvalidArgument("expected an integer parameter");
    }
    uint64_t v = 0;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      v = v * 10 + static_cast<uint64_t>(text_[pos_++] - '0');
    }
    return v;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

Result<SchemeDescriptor> SchemeDescriptor::Parse(const std::string& text) {
  Parser parser(text);
  RECOMP_ASSIGN_OR_RETURN(SchemeDescriptor desc, parser.Parse());
  RECOMP_RETURN_NOT_OK(desc.Validate());
  return desc;
}

SchemeDescriptor Id() { return SchemeDescriptor(SchemeKind::kId); }
SchemeDescriptor ZigZag() { return SchemeDescriptor(SchemeKind::kZigZag); }
SchemeDescriptor Ns(int width) {
  SchemeDescriptor d(SchemeKind::kNs);
  d.params.width = width;
  return d;
}
SchemeDescriptor VByte() { return SchemeDescriptor(SchemeKind::kVByte); }
SchemeDescriptor Delta() { return SchemeDescriptor(SchemeKind::kDelta); }
SchemeDescriptor Rpe() { return SchemeDescriptor(SchemeKind::kRpe); }
SchemeDescriptor Dict() { return SchemeDescriptor(SchemeKind::kDict); }
SchemeDescriptor Step(uint64_t segment_length) {
  SchemeDescriptor d(SchemeKind::kStep);
  d.params.segment_length = segment_length;
  return d;
}
SchemeDescriptor Plin(uint64_t segment_length) {
  SchemeDescriptor d(SchemeKind::kPlin);
  d.params.segment_length = segment_length;
  return d;
}
SchemeDescriptor Modeled(SchemeDescriptor model) {
  SchemeDescriptor d(SchemeKind::kModeled);
  d.args.push_back(std::move(model));
  return d;
}
SchemeDescriptor Patched(int width) {
  SchemeDescriptor d(SchemeKind::kPatched);
  d.params.width = width;
  return d;
}

}  // namespace recomp
