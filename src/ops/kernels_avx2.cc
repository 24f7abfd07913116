// AVX2 implementations of the hot decompression kernels.
//
// This translation unit is compiled with -mavx2 (see CMakeLists.txt); when
// the build disables AVX2 it compiles to thin forwarding wrappers over
// scalar code so the symbols always exist. All entry points here assume the
// caller checked ops::HasAvx2().
//
// The unpack kernels exploit the layout invariant that 8 consecutive
// width-bit values span exactly `width` bytes, so a group's first value
// starts at a computable byte with a sub-byte remainder of at most 7 bits.
// Two overlapping 32-byte loads plus a dword permute put each lane's window
// in place, and variable shifts extract the value — no gather, any width.
// A lane's window is [32*d, 32*d+64) bits (d = in-window dword index,
// sub-dword shift s <= 31, s + width <= 63 < 64). Groups whose 36-byte load
// window would cross the payload end fall back to scalar code. Every kernel
// is u32; u64 columns decode through the callers' scalar code.

#include "ops/kernels_avx2.h"

#include <algorithm>
#include <cstring>

#include "util/bits.h"
#include "util/macros.h"
#include "util/zigzag.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace recomp::ops::avx2 {

namespace {

// Scalar fallbacks used for buffer tails (and for the whole input when the
// build lacks AVX2).

/// Unpacks elements [first, n) of the range starting at element `begin`.
/// A value of at most 32 bits at a sub-byte shift of at most 7 lies inside
/// the 8 bytes loaded.
void UnpackScalar(const uint8_t* in, uint64_t in_bytes, uint64_t begin,
                  uint64_t first, uint64_t n, int width, uint32_t* out) {
  const uint64_t mask = bits::LowMask64(width);
  const uint64_t uwidth = static_cast<uint64_t>(width);
  for (uint64_t i = first; i < n; ++i) {
    const uint64_t bitpos = (begin + i) * uwidth;
    const uint64_t byte = bitpos >> 3;
    if (RECOMP_PREDICT_FALSE(byte >= in_bytes)) {
      out[i] = 0;
      continue;
    }
    uint64_t v = 0;
    const uint64_t avail = in_bytes - byte;
    std::memcpy(&v, in + byte, avail >= 8 ? 8 : avail);
    out[i] = static_cast<uint32_t>((v >> (bitpos & 7)) & mask);
  }
}

void PrefixSumTail(const uint32_t* in, uint64_t first, uint64_t n,
                   uint32_t acc, uint32_t* out) {
  for (uint64_t i = first; i < n; ++i) {
    acc += in[i];
    out[i] = acc;
  }
}

/// In-place zigzag decode + inclusive prefix sum over [first, n).
void ZigZagPrefixScalar(uint32_t* data, uint64_t first, uint64_t n,
                        uint32_t acc) {
  for (uint64_t i = first; i < n; ++i) {
    acc += static_cast<uint32_t>(zigzag::Decode(data[i]));
    data[i] = acc;
  }
}

}  // namespace

// The scatter bound is scalar on AVX2 (no scatter instruction before
// AVX-512); a 4x unroll keeps the stores independent.
void ScatterU32(uint32_t* data, const uint32_t* positions,
                const uint32_t* values, uint64_t count) {
  uint64_t p = 0;
  for (; p + 4 <= count; p += 4) {
    data[positions[p]] = values[p];
    data[positions[p + 1]] = values[p + 1];
    data[positions[p + 2]] = values[p + 2];
    data[positions[p + 3]] = values[p + 3];
  }
  for (; p < count; ++p) data[positions[p]] = values[p];
}

#if defined(__AVX2__)

namespace {

/// Bytes a group load may touch past the group's first byte: two unaligned
/// 32-byte loads at base and base + 4.
constexpr uint64_t kGroupLoadReach = 36;

/// Width-generic unpack of 8 u32 values per call. Lane j's value starts
/// rel_j = (bit & 7) + j*width bits into the window at byte bit/8; dword
/// d_j = rel_j >> 5 and its successor cover the value, so one permute per
/// load aligns them and (lo >> s) | (hi << (32 - s)) extracts it (a shift
/// count of 32 yields 0, which is exactly the s == 0 case).
class UnpackerU32 {
 public:
  explicit UnpackerU32(int width)
      : lane_bits_(_mm256_setr_epi32(0, width, 2 * width, 3 * width,
                                     4 * width, 5 * width, 6 * width,
                                     7 * width)),
        mask_(_mm256_set1_epi32(static_cast<int>(bits::LowMask32(width)))) {}

  __m256i Group(const uint8_t* in, uint64_t bit) const {
    const uint64_t base = bit >> 3;
    const __m256i rel = _mm256_add_epi32(
        _mm256_set1_epi32(static_cast<int>(bit & 7)), lane_bits_);
    const __m256i dword = _mm256_srli_epi32(rel, 5);
    const __m256i shift = _mm256_and_si256(rel, _mm256_set1_epi32(31));
    const __m256i v0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + base));
    const __m256i v1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + base + 4));
    const __m256i lo = _mm256_permutevar8x32_epi32(v0, dword);
    const __m256i hi = _mm256_permutevar8x32_epi32(v1, dword);
    const __m256i val = _mm256_or_si256(
        _mm256_srlv_epi32(lo, shift),
        _mm256_sllv_epi32(hi, _mm256_sub_epi32(_mm256_set1_epi32(32), shift)));
    return _mm256_and_si256(val, mask_);
  }

 private:
  __m256i lane_bits_;
  __m256i mask_;
};

/// One merge round of the pack kernel: output qword q is source qword
/// left[q] shifted left by left_count[q], ORed with source qword carry[q]
/// shifted right by carry_count[q]. A count of 64 contributes nothing
/// (AVX2's variable shifts yield 0 for counts of 64 or more), so a round is
/// two permutes and two shifts whatever the width.
class MergeRound {
 public:
  MergeRound(const int (&left)[4], const int (&left_count)[4],
             const int (&carry)[4], const int (&carry_count)[4])
      : left_(QwordIndex(left)),
        left_count_(Counts(left_count)),
        carry_(QwordIndex(carry)),
        carry_count_(Counts(carry_count)) {}

  /// Each 128-bit half [a, b], both `shift` bits wide, becomes the
  /// 2 * shift-bit value a | b << shift; this supplies everything but a.
  static MergeRound PairsInHalves(int shift) {
    return MergeRound({1, 0, 3, 0}, {shift, 64, shift, 64}, {0, 1, 0, 3},
                      {64, 64 - shift, 64, 64 - shift});
  }

  /// The high half (qwords 2 and 3), read as one 128-bit number, shifted
  /// up `shift` bits into output qwords 0-3.
  static MergeRound HighHalfUp(int shift) {
    int left[4], left_count[4], carry[4], carry_count[4];
    const int whole = shift / 64;
    const int part = shift % 64;
    for (int lane = 0; lane < 4; ++lane) {
      const int low = lane - whole;  // Lands with its low bits.
      const int high = low - 1;      // Spills its high bits.
      const bool has_low = low >= 0 && low < 2;
      const bool has_high = part > 0 && high >= 0 && high < 2;
      left[lane] = 2 + (has_low ? low : 0);
      left_count[lane] = has_low ? part : 64;
      carry[lane] = 2 + (has_high ? high : 0);
      carry_count[lane] = has_high ? 64 - part : 64;
    }
    return MergeRound(left, left_count, carry, carry_count);
  }

  __m256i Apply(__m256i src) const {
    return _mm256_or_si256(
        _mm256_sllv_epi64(_mm256_permutevar8x32_epi32(src, left_),
                          left_count_),
        _mm256_srlv_epi64(_mm256_permutevar8x32_epi32(src, carry_),
                          carry_count_));
  }

 private:
  static __m256i QwordIndex(const int (&q)[4]) {
    return _mm256_setr_epi32(2 * q[0], 2 * q[0] + 1, 2 * q[1], 2 * q[1] + 1,
                             2 * q[2], 2 * q[2] + 1, 2 * q[3], 2 * q[3] + 1);
  }
  static __m256i Counts(const int (&c)[4]) {
    return _mm256_setr_epi64x(c[0], c[1], c[2], c[3]);
  }

  __m256i left_;
  __m256i left_count_;
  __m256i carry_;
  __m256i carry_count_;
};

/// Keeps qwords 0 and 2 (the low qword of each half).
inline __m256i LowQwordOfHalves(__m256i x) {
  return _mm256_blend_epi32(_mm256_setzero_si256(), x, 0x33);
}

/// Keeps the low 128-bit half.
inline __m256i LowHalf(__m256i x) {
  return _mm256_blend_epi32(_mm256_setzero_si256(), x, 0x0F);
}

/// The mirror of UnpackerU32: 8 u32 values become 8 * width bits (exactly
/// `width` bytes) in three merge rounds, each doubling the packed run: the
/// dword pair of each qword (2w bits), the qword pair of each half (4w),
/// then the two halves (8w). Bits past 8w are zero.
class PackerU32 {
 public:
  explicit PackerU32(int width)
      : mask_(_mm256_set1_epi32(static_cast<int>(bits::LowMask32(width)))),
        width_(_mm_cvtsi32_si128(width)),
        pairs_(MergeRound::PairsInHalves(2 * width)),
        halves_(MergeRound::HighHalfUp(4 * width)) {}

  __m256i Group(__m256i values) const {
    const __m256i v = _mm256_and_si256(values, mask_);
    const __m256i pairs = _mm256_or_si256(
        _mm256_and_si256(v, _mm256_set1_epi64x(0xFFFFFFFF)),
        _mm256_sll_epi64(_mm256_srli_epi64(v, 32), width_));
    const __m256i quads =
        _mm256_or_si256(LowQwordOfHalves(pairs), pairs_.Apply(pairs));
    return _mm256_or_si256(LowHalf(quads), halves_.Apply(quads));
  }

 private:
  __m256i mask_;
  __m128i width_;
  MergeRound pairs_;
  MergeRound halves_;
};

/// The OR of the four qword lanes.
inline uint64_t OrLanes(__m256i x) {
  const __m128i half = _mm_or_si128(_mm256_castsi256_si128(x),
                                    _mm256_extracti128_si256(x, 1));
  return static_cast<uint64_t>(_mm_cvtsi128_si64(half)) |
         static_cast<uint64_t>(_mm_extract_epi64(half, 1));
}

/// Inclusive prefix sum within one 8-lane vector.
inline __m256i PrefixSum8(__m256i x) {
  x = _mm256_add_epi32(x, _mm256_slli_si256(x, 4));
  x = _mm256_add_epi32(x, _mm256_slli_si256(x, 8));
  // Carry the low half's total (its lane 3) into every lane of the high half.
  const __m256i half_totals = _mm256_shuffle_epi32(x, _MM_SHUFFLE(3, 3, 3, 3));
  const __m256i carry = _mm256_permute2x128_si256(half_totals, half_totals,
                                                  0x08);
  return _mm256_add_epi32(x, carry);
}

/// (v >> 1) ^ -(v & 1) per u32 lane.
inline __m256i ZigZagDecode32(__m256i v) {
  const __m256i sign = _mm256_sub_epi32(
      _mm256_setzero_si256(), _mm256_and_si256(v, _mm256_set1_epi32(1)));
  return _mm256_xor_si256(_mm256_srli_epi32(v, 1), sign);
}

inline uint32_t Lane0U32(__m256i x) {
  return static_cast<uint32_t>(_mm_cvtsi128_si32(_mm256_castsi256_si128(x)));
}

}  // namespace

void UnpackU32(const uint8_t* in, uint64_t in_bytes, uint64_t begin,
               uint64_t n, int width, uint32_t* out) {
  RECOMP_DCHECK(width >= 0 && width <= kMaxUnpackWidth,
                "AVX2 unpack width out of range");
  if (width == 0) {
    std::fill_n(out, n, uint32_t{0});  // out may be null when n == 0.
    return;
  }
  const UnpackerU32 unpacker(width);
  const uint64_t uwidth = static_cast<uint64_t>(width);
  uint64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const uint64_t bit = (begin + i) * uwidth;
    if (RECOMP_PREDICT_FALSE((bit >> 3) + kGroupLoadReach > in_bytes)) break;
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        unpacker.Group(in, bit));
  }
  UnpackScalar(in, in_bytes, begin, i, n, width, out);
}

uint64_t PackU32(const uint32_t* in, uint64_t n, int width, uint8_t* out,
                 uint64_t out_bytes, uint64_t* seen) {
  RECOMP_DCHECK(width >= 0 && width <= kMaxUnpackWidth,
                "AVX2 pack width out of range");
  if (width == 0) return 0;
  const PackerU32 packer(width);
  const uint64_t uwidth = static_cast<uint64_t>(width);
  __m256i inputs = _mm256_setzero_si256();
  uint64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const uint64_t byte = i / 8 * uwidth;
    if (RECOMP_PREDICT_FALSE(byte + 32 > out_bytes)) break;
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    inputs = _mm256_or_si256(inputs, v);
    // Bits past the group's `width` bytes are zero, and the next group's
    // store overwrites them.
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + byte),
                        packer.Group(v));
  }
  const uint64_t pairs = OrLanes(inputs);  // Two dwords per qword.
  *seen |= (pairs | pairs >> 32) & 0xFFFFFFFF;
  return i;
}

void UnpackAddU32(const uint8_t* in, uint64_t in_bytes, uint64_t begin,
                  uint64_t n, int width, uint32_t addend, uint32_t* out) {
  if (width == 0) {
    for (uint64_t i = 0; i < n; ++i) out[i] = addend;
    return;
  }
  const UnpackerU32 unpacker(width);
  const __m256i a = _mm256_set1_epi32(static_cast<int>(addend));
  const uint64_t uwidth = static_cast<uint64_t>(width);
  uint64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const uint64_t bit = (begin + i) * uwidth;
    if (RECOMP_PREDICT_FALSE((bit >> 3) + kGroupLoadReach > in_bytes)) break;
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_add_epi32(unpacker.Group(in, bit), a));
  }
  UnpackScalar(in, in_bytes, begin, i, n, width, out);
  for (; i < n; ++i) out[i] += addend;
}

void UnpackZigZagPrefixU32(const uint8_t* in, uint64_t in_bytes, uint64_t n,
                           int width, uint32_t* out) {
  if (width == 0) {
    std::fill_n(out, n, uint32_t{0});  // out may be null when n == 0.
    return;
  }
  const UnpackerU32 unpacker(width);
  const uint64_t uwidth = static_cast<uint64_t>(width);
  __m256i running = _mm256_setzero_si256();
  uint64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const uint64_t bit = i * uwidth;
    if (RECOMP_PREDICT_FALSE((bit >> 3) + kGroupLoadReach > in_bytes)) break;
    const __m256i decoded = ZigZagDecode32(unpacker.Group(in, bit));
    const __m256i sums = _mm256_add_epi32(PrefixSum8(decoded), running);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), sums);
    running = _mm256_permutevar8x32_epi32(sums, _mm256_set1_epi32(7));
  }
  UnpackScalar(in, in_bytes, 0, i, n, width, out);
  ZigZagPrefixScalar(out, i, n, Lane0U32(running));
}

void ZigZagPrefixInPlaceU32(uint32_t* data, uint64_t n) {
  __m256i running = _mm256_setzero_si256();
  uint64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    const __m256i sums =
        _mm256_add_epi32(PrefixSum8(ZigZagDecode32(v)), running);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(data + i), sums);
    running = _mm256_permutevar8x32_epi32(sums, _mm256_set1_epi32(7));
  }
  ZigZagPrefixScalar(data, i, n, Lane0U32(running));
}

void PrefixSumInclusiveU32(const uint32_t* in, uint64_t n, uint32_t* out) {
  uint64_t i = 0;
  __m256i running = _mm256_setzero_si256();
  for (; i + 8 <= n; i += 8) {
    __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    x = _mm256_add_epi32(PrefixSum8(x), running);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), x);
    running = _mm256_permutevar8x32_epi32(x, _mm256_set1_epi32(7));
  }
  PrefixSumTail(in, i, n, Lane0U32(running), out);
}

void AddConstantU32(const uint32_t* in, uint64_t n, uint32_t addend,
                    uint32_t* out) {
  const __m256i a = _mm256_set1_epi32(static_cast<int>(addend));
  uint64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_add_epi32(x, a));
  }
  for (; i < n; ++i) out[i] = in[i] + addend;
}

void GatherU32(const uint32_t* values, const uint32_t* indices, uint64_t n,
               uint32_t* out) {
  uint64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(indices + i));
    const __m256i vals = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(values), idx, 4);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), vals);
  }
  for (; i < n; ++i) out[i] = values[indices[i]];
}

#else  // !defined(__AVX2__)

uint64_t PackU32(const uint32_t*, uint64_t, int, uint8_t*, uint64_t,
                 uint64_t*) {
  return 0;
}

void UnpackU32(const uint8_t* in, uint64_t in_bytes, uint64_t begin,
               uint64_t n, int width, uint32_t* out) {
  UnpackScalar(in, in_bytes, begin, 0, n, width, out);
}

void UnpackAddU32(const uint8_t* in, uint64_t in_bytes, uint64_t begin,
                  uint64_t n, int width, uint32_t addend, uint32_t* out) {
  UnpackScalar(in, in_bytes, begin, 0, n, width, out);
  for (uint64_t i = 0; i < n; ++i) out[i] += addend;
}

void UnpackZigZagPrefixU32(const uint8_t* in, uint64_t in_bytes, uint64_t n,
                           int width, uint32_t* out) {
  UnpackScalar(in, in_bytes, 0, 0, n, width, out);
  ZigZagPrefixScalar(out, 0, n, 0);
}

void ZigZagPrefixInPlaceU32(uint32_t* data, uint64_t n) {
  ZigZagPrefixScalar(data, 0, n, 0);
}

void PrefixSumInclusiveU32(const uint32_t* in, uint64_t n, uint32_t* out) {
  PrefixSumTail(in, 0, n, 0, out);
}

void AddConstantU32(const uint32_t* in, uint64_t n, uint32_t addend,
                    uint32_t* out) {
  for (uint64_t i = 0; i < n; ++i) out[i] = in[i] + addend;
}

void GatherU32(const uint32_t* values, const uint32_t* indices, uint64_t n,
               uint32_t* out) {
  for (uint64_t i = 0; i < n; ++i) out[i] = values[indices[i]];
}

#endif  // defined(__AVX2__)

}  // namespace recomp::ops::avx2
