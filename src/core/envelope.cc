#include "core/envelope.h"

#include "util/bits.h"
#include "util/string_util.h"

namespace recomp {

namespace {

const CompressedPart* FindPart(const CompressedNode& node, const char* name) {
  const auto it = node.parts.find(name);
  return it == node.parts.end() ? nullptr : &it->second;
}

/// The part as a terminal plain column, or nullptr.
const AnyColumn* PlainPart(const CompressedNode& node, const char* name) {
  const CompressedPart* part = FindPart(node, name);
  return part != nullptr && part->is_terminal() && !part->column->is_packed()
             ? &*part->column
             : nullptr;
}

/// The part as a composed sub-node, or nullptr.
const CompressedNode* Composed(const CompressedNode& node, const char* name) {
  const CompressedPart* part = FindPart(node, name);
  return part != nullptr && !part->is_terminal() ? part->sub.get() : nullptr;
}

/// The payload of an NS{packed: <packed terminal>} node, or nullptr.
const PackedColumn* NsPayload(const CompressedNode* node) {
  if (node == nullptr || node->scheme.kind != SchemeKind::kNs) return nullptr;
  const CompressedPart* part = FindPart(*node, "packed");
  return part != nullptr && part->is_terminal() && part->column->is_packed()
             ? &part->column->packed()
             : nullptr;
}

/// Checks an NS payload the way the reference recursion would: `n` values
/// of `type` at the descriptor's width, the whole payload present.
Status CheckNs(const CompressedNode& ns, const PackedColumn& packed,
               TypeId type, uint64_t n) {
  if (ns.out_type != type) {
    return Status::Corruption("NS part has the wrong type");
  }
  if (ns.n != n || packed.n != n) {
    return Status::Corruption("NS packed length differs from envelope");
  }
  if (packed.bit_width != ns.scheme.params.width) {
    return Status::Corruption("NS packed width differs from descriptor");
  }
  if (packed.bit_width > 8 * TypeIdByteWidth(type)) {
    return Status::InvalidArgument("cannot unpack width into narrower type");
  }
  if (packed.bytes.size() < bits::PackedByteSize(n, packed.bit_width)) {
    return Status::Corruption("packed payload shorter than declared rows");
  }
  return Status::OK();
}

// The shape grammar reads nodes and descriptors through overload pairs: a
// composed part is a child descriptor (Composed), a terminal plain part one
// the descriptor leaves uncomposed (Plain), NS{packed} a bare NS (IsNsLeaf).

const SchemeDescriptor* Composed(const SchemeDescriptor& desc,
                                 const char* part) {
  const auto it = desc.children.find(part);
  return it == desc.children.end() ? nullptr : &it->second;
}

bool Plain(const CompressedNode& node, const char* part) {
  return PlainPart(node, part) != nullptr;
}

bool Plain(const SchemeDescriptor& desc, const char* part) {
  return Composed(desc, part) == nullptr;
}

bool IsNsLeaf(const CompressedNode* node) { return NsPayload(node) != nullptr; }

bool IsNsLeaf(const SchemeDescriptor* desc) {
  return desc != nullptr && desc->kind == SchemeKind::kNs &&
         desc->children.empty();
}

const SchemeDescriptor& Scheme(const CompressedNode& node) {
  return node.scheme;
}

const SchemeDescriptor& Scheme(const SchemeDescriptor& desc) { return desc; }

/// PATCHED{base: NS} with plain patch lists.
template <typename Tree>
bool IsPatchedNs(const Tree* tree) {
  return tree != nullptr && Scheme(*tree).kind == SchemeKind::kPatched &&
         IsNsLeaf(Composed(*tree, "base")) &&
         Plain(*tree, "patch_positions") && Plain(*tree, "patch_values");
}

/// The fused shape `tree`'s parts spell (FusedShape documents each).
template <typename Tree>
FusedShape MatchShape(const Tree& tree) {
  const SchemeDescriptor& scheme = Scheme(tree);
  switch (scheme.kind) {
    case SchemeKind::kNs:
      return IsNsLeaf(&tree) ? FusedShape::kNs : FusedShape::kGeneric;
    case SchemeKind::kRpe: {
      const Tree* positions = Composed(tree, "positions");
      if (positions == nullptr ||
          Scheme(*positions).kind != SchemeKind::kDelta) {
        break;
      }
      if (Plain(*positions, "deltas") && Plain(tree, "values")) {
        return FusedShape::kRle;
      }
      if (IsNsLeaf(Composed(*positions, "deltas"))) return FusedShape::kRleNs;
      break;
    }
    case SchemeKind::kModeled: {
      if (scheme.args.size() != 1 ||
          scheme.args[0].kind != SchemeKind::kStep || !Plain(tree, "refs")) {
        break;
      }
      const Tree* residual = Composed(tree, "residual");
      if (IsNsLeaf(residual)) return FusedShape::kFor;
      if (IsPatchedNs(residual)) return FusedShape::kPfor;
      break;
    }
    case SchemeKind::kPatched:
      if (IsPatchedNs(&tree)) return FusedShape::kPatchedNs;
      break;
    case SchemeKind::kDelta: {
      const Tree* zz = Composed(tree, "deltas");
      if (zz == nullptr || Scheme(*zz).kind != SchemeKind::kZigZag) break;
      const Tree* recoded = Composed(*zz, "recoded");
      if (IsNsLeaf(recoded)) return FusedShape::kDeltaZigZagNs;
      if (IsPatchedNs(recoded)) return FusedShape::kDeltaZigZagPatchedNs;
      break;
    }
    default:
      break;
  }
  return FusedShape::kGeneric;
}

/// Validates a PATCHED{base: NS} node (IsPatchedNs) of `n` values of `type`.
Status ViewPatchedNs(const CompressedNode& patched, TypeId type, uint64_t n,
                     EnvelopeView* view) {
  if (patched.out_type != type || patched.n != n) {
    return Status::Corruption("PATCHED part differs from the envelope");
  }
  const CompressedNode& base = *Composed(patched, "base");
  view->packed = NsPayload(&base);
  RECOMP_RETURN_NOT_OK(CheckNs(base, *view->packed, type, n));
  PatchView& patches = view->patches;
  patches.positions = PlainPart(patched, "patch_positions");
  patches.values = PlainPart(patched, "patch_values");
  if (patches.positions->type() != TypeId::kUInt32 ||
      patches.values->type() != type) {
    return Status::Corruption("PATCHED patch list has the wrong type");
  }
  if (patches.positions->size() != patches.values->size()) {
    return Status::Corruption("PATCHED patch arity mismatch");
  }
  patches.mask = bits::LowMask64(patched.scheme.params.width);
  return Status::OK();
}

/// A part that must read as values of `type`: plain when terminal; a
/// composed part declares the type and decodes to it.
Result<PartView> ViewPart(const CompressedNode& node, const char* name,
                          TypeId type) {
  const CompressedPart* part = FindPart(node, name);
  PartView view;
  if (part != nullptr && part->is_terminal()) {
    if (!part->column->is_packed() && part->column->type() == type) {
      view.column = &*part->column;
    }
  } else if (part != nullptr && part->sub != nullptr &&
             part->sub->out_type == type) {
    view.sub = part->sub.get();
  }
  if (view.column == nullptr && view.sub == nullptr) {
    return Status::Corruption(
        StringFormat("%s part '%s' is missing or has the wrong type",
                     SchemeKindName(node.scheme.kind), name));
  }
  return view;
}

/// RPE: values and exclusive run ends, equally many.
Status ViewRuns(const CompressedNode& node, EnvelopeView* view) {
  RECOMP_ASSIGN_OR_RETURN(const PartView values,
                          ViewPart(node, "values", node.out_type));
  RECOMP_ASSIGN_OR_RETURN(const PartView ends,
                          ViewPart(node, "positions", TypeId::kUInt32));
  if (values.size() != ends.size()) {
    return Status::Corruption("RPE values/positions arity mismatch");
  }
  view->runs = RunsView{values, ends};
  return Status::OK();
}

Status ViewDict(const CompressedNode& node, EnvelopeView* view) {
  RECOMP_ASSIGN_OR_RETURN(const PartView codes,
                          ViewPart(node, "codes", TypeId::kUInt32));
  RECOMP_ASSIGN_OR_RETURN(const PartView dictionary,
                          ViewPart(node, "dictionary", node.out_type));
  if (codes.size() != node.n) {
    return Status::Corruption("DICT codes length differs from envelope");
  }
  view->dict = DictView{codes, dictionary, NsPayload(codes.sub)};
  if (view->dict->packed_codes == nullptr) return Status::OK();
  return CheckNs(*codes.sub, *view->dict->packed_codes, TypeId::kUInt32,
                 node.n);
}

/// Binds and checks the parts of the fused shape the grammar matched; RLE's
/// run parts are already checked (ViewRuns).
Status ViewShape(const CompressedNode& node, EnvelopeView* view) {
  switch (view->shape) {
    case FusedShape::kNs:
      view->packed = NsPayload(&node);
      return CheckNs(node, *view->packed, node.out_type, node.n);
    case FusedShape::kRle: {
      // The run lengths: the plain deltas of the run ends.
      const CompressedNode& delta = *Composed(node, "positions");
      view->lengths = PlainPart(delta, "deltas");
      if (view->lengths->type() != TypeId::kUInt32 ||
          view->lengths->size() != delta.n) {
        return Status::Corruption("RLE run lengths differ from the envelope");
      }
      return Status::OK();
    }
    case FusedShape::kRleNs: {
      const CompressedNode& delta = *Composed(node, "positions");
      const CompressedNode& ns = *Composed(delta, "deltas");
      view->packed = NsPayload(&ns);
      return CheckNs(ns, *view->packed, TypeId::kUInt32, delta.n);
    }
    case FusedShape::kFor:
    case FusedShape::kPfor: {
      view->refs = PlainPart(node, "refs");
      view->ell = node.scheme.args[0].params.segment_length;
      if (view->refs->type() != node.out_type || view->ell == 0 ||
          view->refs->size() != bits::CeilDiv(node.n, view->ell)) {
        return Status::Corruption("FOR references disagree with the envelope");
      }
      const CompressedNode& residual = *Composed(node, "residual");
      if (view->shape == FusedShape::kPfor) {
        return ViewPatchedNs(residual, node.out_type, node.n, view);
      }
      view->packed = NsPayload(&residual);
      return CheckNs(residual, *view->packed, node.out_type, node.n);
    }
    case FusedShape::kPatchedNs:
      return ViewPatchedNs(node, node.out_type, node.n, view);
    case FusedShape::kDeltaZigZagNs:
    case FusedShape::kDeltaZigZagPatchedNs: {
      const CompressedNode& zz = *Composed(node, "deltas");
      if (zz.out_type != node.out_type || zz.n != node.n) {
        return Status::Corruption("ZIGZAG part differs from the envelope");
      }
      const CompressedNode& recoded = *Composed(zz, "recoded");
      if (view->shape == FusedShape::kDeltaZigZagPatchedNs) {
        return ViewPatchedNs(recoded, node.out_type, node.n, view);
      }
      view->packed = NsPayload(&recoded);
      return CheckNs(recoded, *view->packed, node.out_type, node.n);
    }
    case FusedShape::kGeneric:
      break;
  }
  return Status::OK();
}

}  // namespace

Result<EnvelopeView> ViewEnvelope(const CompressedNode& node) {
  if (node.n > kMaxClaimedRows) {
    return Status::Corruption("implausible row count");
  }
  EnvelopeView view;
  // The kernels decode unsigned types only.
  if (TypeIdIsUnsigned(node.out_type)) view.shape = MatchShape(node);
  switch (node.scheme.kind) {
    case SchemeKind::kId:
      view.stored_plain = PlainPart(node, "data");
      if (view.stored_plain != nullptr &&
          (view.stored_plain->type() != node.out_type ||
           view.stored_plain->size() != node.n)) {
        view.stored_plain = nullptr;
      }
      break;
    case SchemeKind::kRpe:
      RECOMP_RETURN_NOT_OK(ViewRuns(node, &view));
      break;
    case SchemeKind::kDict:
      RECOMP_RETURN_NOT_OK(ViewDict(node, &view));
      break;
    default:
      break;
  }
  RECOMP_RETURN_NOT_OK(ViewShape(node, &view));
  return view;
}

FusedShape ClassifyFusedShape(const CompressedNode& node) {
  const Result<EnvelopeView> view = ViewEnvelope(node);
  return view.ok() ? view->shape : FusedShape::kGeneric;
}

FusedShape ClassifyFusedDescriptor(const SchemeDescriptor& desc) {
  return MatchShape(desc);
}

const AnyColumn* StoredPlainData(const CompressedNode& node) {
  const Result<EnvelopeView> view = ViewEnvelope(node);
  return view.ok() ? view->stored_plain : nullptr;
}

}  // namespace recomp
