// Shared dispatch helpers for scheme implementations (not a public header).

#ifndef RECOMP_SCHEMES_SCHEME_INTERNAL_H_
#define RECOMP_SCHEMES_SCHEME_INTERNAL_H_

#include <utility>

#include "schemes/scheme.h"
#include "util/string_util.h"

namespace recomp::internal {

/// Tag carrying a static element type through a generic lambda.
template <typename T>
struct TypeTag {
  using type = T;
};

/// Invokes f(Column<T>&) for the unsigned column held by `input`; errors for
/// packed or signed inputs (signed data is normalized with ZIGZAG first).
template <typename F>
auto DispatchUnsignedColumn(const AnyColumn& input, F&& f)
    -> decltype(f(std::declval<const Column<uint32_t>&>())) {
  if (input.is_packed()) {
    return Status::InvalidArgument("scheme input must be a plain column");
  }
  switch (input.type()) {
    case TypeId::kUInt8:
      return f(input.As<uint8_t>());
    case TypeId::kUInt16:
      return f(input.As<uint16_t>());
    case TypeId::kUInt32:
      return f(input.As<uint32_t>());
    case TypeId::kUInt64:
      return f(input.As<uint64_t>());
    default:
      return Status::InvalidArgument(
          StringFormat("%s input is signed; compose with ZIGZAG first",
                       TypeIdName(input.type())));
  }
}

/// Invokes f(Column<T>&) for any plain column type.
template <typename F>
auto DispatchAnyColumn(const AnyColumn& input, F&& f)
    -> decltype(f(std::declval<const Column<uint32_t>&>())) {
  if (input.is_packed()) {
    return Status::InvalidArgument("scheme input must be a plain column");
  }
  switch (input.type()) {
    case TypeId::kUInt8:
      return f(input.As<uint8_t>());
    case TypeId::kUInt16:
      return f(input.As<uint16_t>());
    case TypeId::kUInt32:
      return f(input.As<uint32_t>());
    case TypeId::kUInt64:
      return f(input.As<uint64_t>());
    case TypeId::kInt8:
      return f(input.As<int8_t>());
    case TypeId::kInt16:
      return f(input.As<int16_t>());
    case TypeId::kInt32:
      return f(input.As<int32_t>());
    case TypeId::kInt64:
      return f(input.As<int64_t>());
  }
  return Status::InvalidArgument("unknown column type");
}

/// Invokes f(TypeTag<T>{}) for the unsigned type identified by `t`.
template <typename F>
auto DispatchUnsignedTypeId(TypeId t, F&& f)
    -> decltype(f(TypeTag<uint32_t>{})) {
  switch (t) {
    case TypeId::kUInt8:
      return f(TypeTag<uint8_t>{});
    case TypeId::kUInt16:
      return f(TypeTag<uint16_t>{});
    case TypeId::kUInt32:
      return f(TypeTag<uint32_t>{});
    case TypeId::kUInt64:
      return f(TypeTag<uint64_t>{});
    default:
      return Status::InvalidArgument(
          StringFormat("expected an unsigned type, got %s", TypeIdName(t)));
  }
}

/// Invokes f(TypeTag<T>{}) for any type id.
template <typename F>
auto DispatchAnyTypeId(TypeId t, F&& f) -> decltype(f(TypeTag<uint32_t>{})) {
  switch (t) {
    case TypeId::kUInt8:
      return f(TypeTag<uint8_t>{});
    case TypeId::kUInt16:
      return f(TypeTag<uint16_t>{});
    case TypeId::kUInt32:
      return f(TypeTag<uint32_t>{});
    case TypeId::kUInt64:
      return f(TypeTag<uint64_t>{});
    case TypeId::kInt8:
      return f(TypeTag<int8_t>{});
    case TypeId::kInt16:
      return f(TypeTag<int16_t>{});
    case TypeId::kInt32:
      return f(TypeTag<int32_t>{});
    case TypeId::kInt64:
      return f(TypeTag<int64_t>{});
  }
  return Status::InvalidArgument("unknown type id");
}

}  // namespace recomp::internal

#endif  // RECOMP_SCHEMES_SCHEME_INTERNAL_H_
