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
const CompressedNode* SubPart(const CompressedNode& node, const char* name) {
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

bool IsPatchedNs(const CompressedNode* node) {
  return node != nullptr && node->scheme.kind == SchemeKind::kPatched &&
         NsPayload(SubPart(*node, "base")) != nullptr &&
         PlainPart(*node, "patch_positions") != nullptr &&
         PlainPart(*node, "patch_values") != nullptr;
}

/// Validates a PATCHED{base: NS} node (IsPatchedNs) of `n` values of `type`.
Status ViewPatchedNs(const CompressedNode& patched, TypeId type, uint64_t n,
                     EnvelopeView* view) {
  if (patched.out_type != type || patched.n != n) {
    return Status::Corruption("PATCHED part differs from the envelope");
  }
  const CompressedNode& base = *SubPart(patched, "base");
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

Status ViewRuns(const CompressedNode& node, EnvelopeView* view) {
  RECOMP_ASSIGN_OR_RETURN(const PartView values,
                          ViewPart(node, "values", node.out_type));
  RECOMP_ASSIGN_OR_RETURN(const PartView ends,
                          ViewPart(node, "positions", TypeId::kUInt32));
  if (values.size() != ends.size()) {
    return Status::Corruption("RPE values/positions arity mismatch");
  }
  view->runs = RunsView{values, ends};
  if (!TypeIdIsUnsigned(node.out_type) || ends.sub == nullptr ||
      ends.sub->scheme.kind != SchemeKind::kDelta) {
    return Status::OK();
  }
  // RLE: the ends are DELTA-coded run lengths.
  const CompressedNode& delta = *ends.sub;
  if (const AnyColumn* lengths = PlainPart(delta, "deltas");
      lengths != nullptr && values.column != nullptr) {
    view->shape = FusedShape::kRle;
    view->lengths = lengths;
    if (lengths->type() != TypeId::kUInt32 || lengths->size() != delta.n) {
      return Status::Corruption("RLE run lengths differ from the envelope");
    }
  } else if (const CompressedNode* ns = SubPart(delta, "deltas");
             NsPayload(ns) != nullptr) {
    view->shape = FusedShape::kRleNs;
    view->packed = NsPayload(ns);
    return CheckNs(*ns, *view->packed, TypeId::kUInt32, delta.n);
  }
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

/// MODELED(STEP){refs: plain, residual: NS | PATCHED{base: NS}}.
Status ViewFor(const CompressedNode& node, EnvelopeView* view) {
  const AnyColumn* refs = PlainPart(node, "refs");
  const CompressedNode* residual = SubPart(node, "residual");
  if (node.scheme.args.size() != 1 ||
      node.scheme.args[0].kind != SchemeKind::kStep || refs == nullptr) {
    return Status::OK();
  }
  if (NsPayload(residual) != nullptr) {
    view->shape = FusedShape::kFor;
  } else if (IsPatchedNs(residual)) {
    view->shape = FusedShape::kPfor;
  } else {
    return Status::OK();
  }
  view->refs = refs;
  view->ell = node.scheme.args[0].params.segment_length;
  if (refs->type() != node.out_type || view->ell == 0 ||
      refs->size() != bits::CeilDiv(node.n, view->ell)) {
    return Status::Corruption("FOR references disagree with the envelope");
  }
  if (view->shape == FusedShape::kPfor) {
    return ViewPatchedNs(*residual, node.out_type, node.n, view);
  }
  view->packed = NsPayload(residual);
  return CheckNs(*residual, *view->packed, node.out_type, node.n);
}

/// DELTA{deltas: ZIGZAG{recoded: NS | PATCHED{base: NS}}}.
Status ViewDeltaZigZag(const CompressedNode& node, EnvelopeView* view) {
  const CompressedNode* zz = SubPart(node, "deltas");
  if (zz == nullptr || zz->scheme.kind != SchemeKind::kZigZag) {
    return Status::OK();
  }
  const CompressedNode* recoded = SubPart(*zz, "recoded");
  if (NsPayload(recoded) != nullptr) {
    view->shape = FusedShape::kDeltaZigZagNs;
  } else if (IsPatchedNs(recoded)) {
    view->shape = FusedShape::kDeltaZigZagPatchedNs;
  } else {
    return Status::OK();
  }
  if (zz->out_type != node.out_type || zz->n != node.n) {
    return Status::Corruption("ZIGZAG part differs from the envelope");
  }
  if (view->shape == FusedShape::kDeltaZigZagPatchedNs) {
    return ViewPatchedNs(*recoded, node.out_type, node.n, view);
  }
  view->packed = NsPayload(recoded);
  return CheckNs(*recoded, *view->packed, node.out_type, node.n);
}

}  // namespace

Result<EnvelopeView> ViewEnvelope(const CompressedNode& node) {
  if (node.n > kMaxClaimedRows) {
    return Status::Corruption("implausible row count");
  }
  EnvelopeView view;
  const bool is_unsigned = TypeIdIsUnsigned(node.out_type);
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
    case SchemeKind::kNs:
      view.packed = is_unsigned ? NsPayload(&node) : nullptr;
      if (view.packed != nullptr) {
        view.shape = FusedShape::kNs;
        RECOMP_RETURN_NOT_OK(
            CheckNs(node, *view.packed, node.out_type, node.n));
      }
      break;
    case SchemeKind::kModeled:
      if (is_unsigned) RECOMP_RETURN_NOT_OK(ViewFor(node, &view));
      break;
    case SchemeKind::kPatched:
      if (is_unsigned && IsPatchedNs(&node)) {
        view.shape = FusedShape::kPatchedNs;
        RECOMP_RETURN_NOT_OK(
            ViewPatchedNs(node, node.out_type, node.n, &view));
      }
      break;
    case SchemeKind::kDelta:
      if (is_unsigned) RECOMP_RETURN_NOT_OK(ViewDeltaZigZag(node, &view));
      break;
    default:
      break;
  }
  return view;
}

const AnyColumn* StoredPlainData(const CompressedNode& node) {
  const Result<EnvelopeView> view = ViewEnvelope(node);
  return view.ok() ? view->stored_plain : nullptr;
}

}  // namespace recomp
