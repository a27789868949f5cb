// The four-lane block word source behind the batched sampler kernels.
//
// A block is 4 * kLaneWords consecutive xoshiro256** words. Lane j of the
// AVX2 source starts at the block's first state jumped ahead by
// j * kLaneWords words, so at step s the four lanes hold the words at block
// positions s, B + s, 2B + s and 3B + s (B = kLaneWords): one block yields
// exactly the words the scalar Rng would, in four strided runs.
//
// A jump is xoshiro's published 256-step jump() loop (XOR the states whose
// bit is set in the constant, one step per bit) run with the constant
// x^n mod p, where p is the generator's degree-256 characteristic
// polynomial: T^n = sum c_i T^i for x^n mod p = sum c_i x^i, since p(T) = 0.
// kLaneJumps holds x^B, x^2B and x^3B mod p, bit i of the 256-bit constant
// in word i / 64; the published 2^128 jump is x^(2^128) mod p in the same
// layout. tests/test_simd_kernels.cpp recomputes p (Berlekamp-Massey over
// 512 bits of the state sequence) and the three constants.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "core/simd/simd.h"
#include "util/rng.h"

namespace netsample::core::simd {

/// B: words per lane per block. A block is 4 * B words; the simple-random
/// kernel keeps one 32-bit Lemire sample per word of a block (32 KiB).
inline constexpr std::size_t kLaneWords = 2048;

/// A GF(2) polynomial of degree < 256: bit i (of word i / 64) is the
/// coefficient of x^i.
using Poly256 = std::array<std::uint64_t, 4>;

/// x^B, x^2B and x^3B mod p: the jumps that start lanes 1, 2 and 3.
inline constexpr std::array<Poly256, 3> kLaneJumps = {{
    {0x876c2301125a85c0ULL, 0x15fe822628b16f04ULL, 0x3c8ca36ec9a74fa7ULL,
     0x51edef31819e01ffULL},
    {0xd7f4e8da7e228b85ULL, 0xd638d47ec5bcf595ULL, 0xaa6eb691cbf9ce10ULL,
     0x0f41cce3698fad39ULL},
    {0xa82bd707a5c0bbcdULL, 0x557d6bd4a66701d2ULL, 0x27e81077d42d6234ULL,
     0x70b2bd03010451a7ULL},
}};

/// Test seams, defined in kernels_avx2.cpp. Both return false (and do
/// nothing) where the AVX2 kernels are not compiled in; callers check
/// variant_available(Variant::kAvx2) before relying on them.
///
/// The lane source's first out.size() words for Rng(seed), in draw order.
bool avx2_lane_words(std::uint64_t seed, std::span<std::uint64_t> out);

/// The AVX2 table's two batched samplers with every block that ran on the
/// lanes then replayed through the scalar Rng from its start state, as a
/// block holding a possible Lemire rejection is. Null entries where AVX2 is
/// not compiled in.
const KernelTable& avx2_replay_kernel_table();

}  // namespace netsample::core::simd
