#include "ops/pack.h"

#include <bit>
#include <cstring>

#include "ops/dispatch.h"
#include "ops/kernels_avx2.h"
#include "util/bits.h"
#include "util/string_util.h"

static_assert(std::endian::native == std::endian::little,
              "packing kernels assume a little-endian target");

namespace recomp::ops {

namespace {

/// Loads up to 8 bytes starting at `p`, zero-extended, without reading past
/// `end`.
inline uint64_t LoadLE64Clamped(const uint8_t* p, const uint8_t* end) {
  uint64_t v = 0;
  const uint64_t avail = static_cast<uint64_t>(end - p);
  std::memcpy(&v, p, avail >= 8 ? 8 : avail);
  return v;
}

/// Packs in[0, n), each value masked to `width` bits, into exactly
/// PackedByteSize(n, width) bytes at `out`, a 64-bit word at a time.
/// Returns the OR of the unmasked inputs, so the fit check needs no pass of
/// its own.
template <typename T>
uint64_t PackScalar(const T* in, uint64_t n, int width, uint8_t* out) {
  const uint64_t mask = bits::LowMask64(width);
  uint64_t seen = 0;
  uint64_t word = 0;  // Bits not yet stored, LSB-first.
  int filled = 0;     // How many; below 64 between values.
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t raw = in[i];
    seen |= raw;
    const uint64_t v = raw & mask;
    word |= v << filled;
    filled += width;
    if (filled >= 64) {
      std::memcpy(out, &word, sizeof(word));
      out += sizeof(word);
      filled -= 64;
      // The high `filled` bits of v did not fit; (v >> 1) >> (width - 1)
      // is 0 when none are left, where v >> width could shift by 64.
      word = (v >> 1) >> (width - 1 - filled);
    }
  }
  if (filled > 0) {
    std::memcpy(out, &word, static_cast<size_t>(filled + 7) / 8);
  }
  return seen;
}

/// Packs `col` into `bytes` (PackedByteSize(col.size(), width) of them):
/// for u32 the AVX2 kernel takes the 8-value groups whose stores fit, and
/// the scalar loop packs the rest from the byte boundary where it stopped
/// (8 values fill exactly `width` bytes). Returns the OR of the inputs.
template <typename T>
uint64_t PackInto(const Column<T>& col, int width, Column<uint8_t>* bytes) {
  uint64_t seen = 0;
  uint64_t done = 0;
  if constexpr (std::is_same_v<T, uint32_t>) {
    if (HasAvx2()) {
      done = avx2::PackU32(col.data(), col.size(), width, bytes->data(),
                           bytes->size(), &seen);
    }
  }
  uint8_t* rest = bytes->data() + done / 8 * static_cast<uint64_t>(width);
  return seen | PackScalar(col.data() + done, col.size() - done, width, rest);
}

/// Pack and PackTruncating: one pass either way; only Pack refuses a value
/// wider than `width`, naming the first such row.
template <typename T>
Result<PackedColumn> PackChecked(const Column<T>& col, int width,
                                 bool check_fit) {
  if (width < 0 || width > bits::TypeBits<T>()) {
    return Status::InvalidArgument(StringFormat(
        "pack width %d outside [0, %d]", width, bits::TypeBits<T>()));
  }
  PackedColumn out;
  out.bit_width = width;
  out.n = col.size();
  out.logical_type = TypeIdOf<T>();
  out.bytes.resize(bits::PackedByteSize(col.size(), width));
  const uint64_t seen = PackInto(col, width, &out.bytes);
  const uint64_t mask = bits::LowMask64(width);
  if (check_fit && (seen & ~mask) != 0) {
    uint64_t row = 0;
    while ((static_cast<uint64_t>(col[row]) & ~mask) == 0) ++row;
    return Status::InvalidArgument(
        StringFormat("value at row %llu does not fit in %d bits",
                     static_cast<unsigned long long>(row), width));
  }
  return out;
}

/// Decodes the single `width`-bit value starting at bit `index * width`.
/// Shared by UnpackOne, UnpackRange's scalar path, and the full unpack; reads
/// past `in_bytes` decode as zero bits.
template <typename T>
T UnpackOneScalar(const uint8_t* in, uint64_t in_bytes, uint64_t index,
                  int width) {
  const uint64_t bitpos = index * static_cast<uint64_t>(width);
  const uint64_t byte = bitpos >> 3;
  if (byte >= in_bytes) return T{0};
  const int shift = static_cast<int>(bitpos & 7);
  uint64_t v = LoadLE64Clamped(in + byte, in + in_bytes) >> shift;
  if (shift + width > 64) {
    // The value straddles 9 bytes (only possible for width > 56).
    v |= static_cast<uint64_t>(in[byte + 8]) << (64 - shift);
  }
  return static_cast<T>(v & bits::LowMask64(width));
}

template <typename T>
void UnpackScalar(const uint8_t* in, uint64_t in_bytes, uint64_t begin,
                  uint64_t n, int width, T* out) {
  for (uint64_t i = 0; i < n; ++i) {
    out[i] = UnpackOneScalar<T>(in, in_bytes, begin + i, width);
  }
}

}  // namespace

template <typename T>
Result<PackedColumn> PackTruncating(const Column<T>& col, int width) {
  return PackChecked(col, width, /*check_fit=*/false);
}

template <typename T>
Result<PackedColumn> Pack(const Column<T>& col, int width) {
  return PackChecked(col, width, /*check_fit=*/true);
}

template <typename T>
Result<Column<T>> Unpack(const PackedColumn& packed) {
  if (packed.bit_width > bits::TypeBits<T>()) {
    return Status::InvalidArgument(
        StringFormat("cannot unpack width %d into %d-bit type",
                     packed.bit_width, bits::TypeBits<T>()));
  }
  const uint64_t needed = bits::PackedByteSize(packed.n, packed.bit_width);
  if (packed.bytes.size() < needed) {
    return Status::Corruption(StringFormat(
        "packed payload holds %llu bytes, need %llu",
        static_cast<unsigned long long>(packed.bytes.size()),
        static_cast<unsigned long long>(needed)));
  }
  Column<T> out(packed.n);
  if (packed.bit_width == 0 || packed.n == 0) {
    std::fill(out.begin(), out.end(), T{0});
    return out;
  }
  if constexpr (std::is_same_v<T, uint32_t>) {
    if (HasAvx2()) {
      avx2::UnpackU32(packed.bytes.data(), packed.bytes.size(), 0, packed.n,
                      packed.bit_width, out.data());
      return out;
    }
  }
  UnpackScalar(packed.bytes.data(), packed.bytes.size(), 0, packed.n,
               packed.bit_width, out.data());
  return out;
}

template <typename T>
T UnpackOne(const PackedColumn& packed, uint64_t index) {
  RECOMP_DCHECK(index < packed.n, "UnpackOne index out of range");
  if (packed.bit_width == 0) return T{0};
  return UnpackOneScalar<T>(packed.bytes.data(), packed.bytes.size(), index,
                            packed.bit_width);
}

template <typename T>
Status UnpackRange(const PackedColumn& packed, uint64_t begin, uint64_t end,
                   T* out) {
  if (begin > end || end > packed.n) {
    return Status::OutOfRange("UnpackRange bounds outside the column");
  }
  if (packed.bit_width > bits::TypeBits<T>()) {
    return Status::InvalidArgument("UnpackRange into too-narrow type");
  }
  if (packed.bit_width == 0) {
    std::fill(out, out + (end - begin), T{0});
    return Status::OK();
  }
  const uint64_t needed = bits::PackedByteSize(packed.n, packed.bit_width);
  if (packed.bytes.size() < needed) {
    return Status::Corruption(StringFormat(
        "packed payload holds %llu bytes, need %llu",
        static_cast<unsigned long long>(packed.bytes.size()),
        static_cast<unsigned long long>(needed)));
  }
  // Values are bit-contiguous, so row i starts at bit i * width; decode the
  // requested rows directly (same width-generic kernels as the full unpack)
  // without touching the rest of the payload.
  const uint64_t count = end - begin;
  if constexpr (std::is_same_v<T, uint32_t>) {
    if (HasAvx2()) {
      avx2::UnpackU32(packed.bytes.data(), packed.bytes.size(), begin, count,
                      packed.bit_width, out);
      return Status::OK();
    }
  }
  UnpackScalar(packed.bytes.data(), packed.bytes.size(), begin, count,
               packed.bit_width, out);
  return Status::OK();
}

#define RECOMP_INSTANTIATE_PACK(T)                                   \
  template Result<PackedColumn> Pack<T>(const Column<T>&, int);      \
  template Result<PackedColumn> PackTruncating<T>(const Column<T>&, int); \
  template Result<Column<T>> Unpack<T>(const PackedColumn&);         \
  template T UnpackOne<T>(const PackedColumn&, uint64_t);            \
  template Status UnpackRange<T>(const PackedColumn&, uint64_t, uint64_t, T*);

RECOMP_INSTANTIATE_PACK(uint8_t)
RECOMP_INSTANTIATE_PACK(uint16_t)
RECOMP_INSTANTIATE_PACK(uint32_t)
RECOMP_INSTANTIATE_PACK(uint64_t)

#undef RECOMP_INSTANTIATE_PACK

}  // namespace recomp::ops
