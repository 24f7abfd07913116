// AVX2 kernel entry points (definitions in kernels_avx2.cc, compiled with
// -mavx2). Callers must check ops::HasAvx2() before calling; when the build
// disables AVX2 these symbols still exist but delegate to scalar code (the
// pack kernel then packs nothing and leaves every value to the caller).
//
// The kernels hold one lane width, u32: every column the benchmarks store is
// uint32, and u64 columns decode through each caller's scalar twin (the path
// RECOMP_FORCE_SCALAR=1 runs everywhere). The unpack kernel is width-generic:
// one permute-based routine covers every width 1..32 at any starting
// element, so range unpacks, whole-column unpacks, and the fused cascade
// kernels all share the same inner loop. The fused entry points (UnpackAddU32,
// UnpackZigZagPrefixU32) keep the unpacked lanes in registers through the
// reconstruction arithmetic — no materialized intermediate column exists.

#ifndef RECOMP_OPS_KERNELS_AVX2_H_
#define RECOMP_OPS_KERNELS_AVX2_H_

#include <cstdint>

namespace recomp::ops::avx2 {

/// Maximum bit width the permute-based u32 unpacker handles (all of them).
inline constexpr int kMaxUnpackWidth = 32;

/// Unpacks `n` `width`-bit values starting at element index `begin` from
/// `in` (with `in_bytes` readable bytes) into `out[0..n)`. Any width in
/// [0, 32]; groups whose 36-byte load window would cross the payload end are
/// delegated to scalar code.
void UnpackU32(const uint8_t* in, uint64_t in_bytes, uint64_t begin,
               uint64_t n, int width, uint32_t* out);

/// The pack kernel mirrors UnpackU32: it packs in[0, n), each value masked
/// to `width` bits, 8 values (exactly `width` bytes) at a time, for as long
/// as a group's unconditional 32-byte store stays inside out[0, out_bytes).
/// It returns how many values it packed, a multiple of 8, so the caller's
/// scalar loop packs the rest from a byte boundary, and ORs every packed
/// input, unmasked, into *seen: the caller's fit check rides along in the
/// same pass. Width 0 packs nothing.
uint64_t PackU32(const uint32_t* in, uint64_t n, int width, uint8_t* out,
                 uint64_t out_bytes, uint64_t* seen);

/// Fused FOR reconstruction: out[i] = unpack(begin + i) + addend. One pass,
/// register-to-register; powers segment-wise MODELED(STEP) decode.
void UnpackAddU32(const uint8_t* in, uint64_t in_bytes, uint64_t begin,
                  uint64_t n, int width, uint32_t addend, uint32_t* out);

/// Fused DELTA←ZIGZAG←NS reconstruction: unpack the whole column, zigzag-
/// decode each lane and running-prefix-sum, all in registers. Sums wrap mod
/// 2^bits exactly like the scalar reference.
void UnpackZigZagPrefixU32(const uint8_t* in, uint64_t in_bytes, uint64_t n,
                           int width, uint32_t* out);

/// In-place zigzag-decode + inclusive prefix sum (the tail half of the fused
/// DELTA decode, for shapes whose codes were materialized by a patch pass).
void ZigZagPrefixInPlaceU32(uint32_t* data, uint64_t n);

/// Inclusive prefix sum of uint32 values, 8 lanes at a time.
void PrefixSumInclusiveU32(const uint32_t* in, uint64_t n, uint32_t* out);

/// out[i] = in[i] + addend.
void AddConstantU32(const uint32_t* in, uint64_t n, uint32_t addend,
                    uint32_t* out);

/// out[i] = values[indices[i]] via vpgatherdd.
void GatherU32(const uint32_t* values, const uint32_t* indices, uint64_t n,
               uint32_t* out);

/// Patched-exception scatter: data[positions[p]] = values[p]. AVX2 has no
/// scatter instruction, so this is the (unrolled) scalar bound; callers
/// validate positions/patch agreement first.
void ScatterU32(uint32_t* data, const uint32_t* positions,
                const uint32_t* values, uint64_t count);

}  // namespace recomp::ops::avx2

#endif  // RECOMP_OPS_KERNELS_AVX2_H_
