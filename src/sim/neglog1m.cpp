#include "sim/neglog1m.hpp"

// The kernel's bit-exactness depends on every multiply and add rounding
// exactly where glibc's rounds. Intrinsic arithmetic is ordinary vector
// arithmetic to the compiler, so under the default -ffp-contract=fast a
// multiply feeding an add would fuse into an FMA glibc does not have (and
// the result drifts by an ulp on ~1% of inputs). Contraction is therefore
// switched off for this file, whatever flags the build passes; the FMAs the
// kernel needs are spelled out as explicit fmadd/fmsub intrinsics.
#if defined(__clang__)
#pragma STDC FP_CONTRACT OFF
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off")
#endif

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include "sim/rng.hpp"

#if defined(__AVX512F__) && defined(__AVX512DQ__)
#include <immintrin.h>
#define HAP_NEGLOG1M_AVX512 1
#endif

namespace hap::sim {

namespace detail {

void neglog1m_block_libm(const double* u, double* out, std::size_t n) noexcept {
    for (std::size_t i = 0; i < n; ++i) out[i] = -std::log1p(-u[i]);
}

#ifdef HAP_NEGLOG1M_AVX512

namespace {

// glibc sysdeps/ieee754/dbl-64/s_log1p.c (fdlibm) constants, as bit
// patterns so no decimal round trip can move them.
constexpr double kLn2Hi = std::bit_cast<double>(0x3fe62e42fee00000ULL);
constexpr double kLn2Lo = std::bit_cast<double>(0x3dea39ef35793c76ULL);
constexpr double kLp1 = std::bit_cast<double>(0x3fe5555555555593ULL);
constexpr double kLp2 = std::bit_cast<double>(0x3fd999999997fa04ULL);
constexpr double kLp3 = std::bit_cast<double>(0x3fd2492494229359ULL);
constexpr double kLp4 = std::bit_cast<double>(0x3fcc71c51d8e78afULL);
constexpr double kLp5 = std::bit_cast<double>(0x3fc7466496cb03deULL);
constexpr double kLp6 = std::bit_cast<double>(0x3fc39a09d078c69fULL);
constexpr double kLp7 = std::bit_cast<double>(0x3fc2f112df3e5244ULL);

__m512i splat(std::uint64_t v) { return _mm512_set1_epi64(static_cast<long long>(v)); }

// Whole-register shifts through the zero-masking forms: the unmasked
// intrinsics merge into _mm512_undefined_epi32(), which GCC 12 reports as
// maybe-uninitialized under -Werror. Same instruction either way.
template <unsigned N>
__m512i shr(__m512i v) { return _mm512_maskz_srli_epi64(0xff, v, N); }
template <unsigned N>
__m512i shl(__m512i v) { return _mm512_maskz_slli_epi64(0xff, v, N); }

// Eight lanes of -log1p(x) with x = -u, transcribing __log1p for
// x in (-1, -2^-29]. Writes all eight outputs and returns the lanes the
// transcription does not cover (the caller recomputes them with libm):
// |x| < 2^-29, x <= -1, non-negative or non-finite x, and the reduced
// argument's hu == 0 branch.
__mmask8 neglog1m8(const double* u, double* out) {
    const __m512d one = _mm512_set1_pd(1.0);
    const __m512i sign = splat(0x8000000000000000ULL);

    const __m512i xb = _mm512_xor_si512(_mm512_castpd_si512(_mm512_loadu_pd(u)), sign);
    const __m512d x = _mm512_castsi512_pd(xb);
    const __m512i hx = shr<32>(xb);
    // Covered: negative x with 2^-29 <= |x| < 1, i.e. high word in
    // [0xbe200000, 0xbff00000).
    const __mmask8 covered = _mm512_cmpge_epu64_mask(hx, splat(0xbe200000U)) &
                             _mm512_cmplt_epu64_mask(hx, splat(0xbff00000U));
    // k = 0 path for -0.2929 < x: glibc's compiled test is
    // hx <= (int32_t)0xbfd2bec3, so 0xbfd2bec4 already reduces.
    const __mmask8 k0 = _mm512_cmplt_epu64_mask(hx, splat(0xbfd2bec4U));

    // k != 0: u1 = 1 + x, correction c = (x - (u1 - 1)) / u1 (k <= 0 here),
    // then normalize u1 into [sqrt(2)/2, sqrt(2)).
    const __m512d u1 = _mm512_add_pd(one, x);
    const __m512d c = _mm512_div_pd(_mm512_sub_pd(x, _mm512_sub_pd(u1, one)), u1);
    const __m512i u1b = _mm512_castpd_si512(u1);
    const __m512i hu_full = shr<32>(u1b);
    __m512i k = _mm512_sub_epi64(shr<20>(hu_full), splat(1023));
    __m512i hu = _mm512_and_si512(hu_full, splat(0x000fffffU));
    const __mmask8 upper = _mm512_cmpge_epu64_mask(hu, splat(0x6a09eU));
    k = _mm512_mask_add_epi64(k, upper, k, splat(1));
    const __m512i exp_bits =
        _mm512_mask_blend_epi64(upper, splat(0x3ff00000U), splat(0x3fe00000U));
    const __m512i norm = _mm512_or_si512(
        _mm512_and_si512(u1b, splat(0x00000000ffffffffULL)),
        shl<32>(_mm512_or_si512(hu, exp_bits)));
    hu = _mm512_mask_blend_epi64(
        upper, hu, shr<2>(_mm512_sub_epi64(splat(0x00100000U), hu)));
    const __mmask8 hu_zero = _mm512_cmpeq_epi64_mask(hu, _mm512_setzero_si512());
    const __m512d f = _mm512_mask_blend_pd(k0, _mm512_sub_pd(_mm512_castsi512_pd(norm), one), x);
    // The final formula is chosen by the value of k, not by the path: a
    // reduction that lands just above 0x6a09e with k = -1 ends at k = 0 and
    // takes the k == 0 formula (no correction term) too.
    const __mmask8 kzero = k0 | _mm512_cmpeq_epi64_mask(k, _mm512_setzero_si512());

    // Shared tail, in glibc's FMA placement.
    const __m512d hfsq = _mm512_mul_pd(_mm512_mul_pd(_mm512_set1_pd(0.5), f), f);
    const __m512d s = _mm512_div_pd(f, _mm512_add_pd(_mm512_set1_pd(2.0), f));
    const __m512d z = _mm512_mul_pd(s, s);
    const __m512d r2 = _mm512_fmadd_pd(z, _mm512_set1_pd(kLp3), _mm512_set1_pd(kLp2));
    const __m512d r3 = _mm512_fmadd_pd(z, _mm512_set1_pd(kLp5), _mm512_set1_pd(kLp4));
    const __m512d r4 = _mm512_fmadd_pd(z, _mm512_set1_pd(kLp7), _mm512_set1_pd(kLp6));
    const __m512d z2 = _mm512_mul_pd(z, z);
    const __m512d z4 = _mm512_mul_pd(z2, z2);
    const __m512d z6 = _mm512_mul_pd(z4, z2);
    __m512d r = _mm512_fmadd_pd(z, _mm512_set1_pd(kLp1), _mm512_mul_pd(z2, r2));
    r = _mm512_fmadd_pd(z4, r3, r);
    r = _mm512_fmadd_pd(z6, r4, r);
    const __m512d t = _mm512_mul_pd(_mm512_add_pd(r, hfsq), s);

    // k == 0: f - (hfsq - s*(hfsq+R)).
    const __m512d res0 = _mm512_sub_pd(f, _mm512_sub_pd(hfsq, t));
    // k != 0: k*ln2_hi - ((hfsq - (s*(hfsq+R) + (k*ln2_lo + c))) - f).
    const __m512d kd = _mm512_cvtepi64_pd(k);
    const __m512d inner = _mm512_sub_pd(
        _mm512_sub_pd(hfsq, _mm512_add_pd(_mm512_fmadd_pd(kd, _mm512_set1_pd(kLn2Lo), c), t)),
        f);
    const __m512d resk = _mm512_fmsub_pd(kd, _mm512_set1_pd(kLn2Hi), inner);

    const __m512d res = _mm512_mask_blend_pd(kzero, resk, res0);
    _mm512_storeu_pd(out, _mm512_castsi512_pd(_mm512_xor_si512(_mm512_castpd_si512(res), sign)));
    return static_cast<__mmask8>(~covered | (hu_zero & ~k0));
}

}  // namespace

bool neglog1m_block_avx512(const double* u, double* out, std::size_t n) noexcept {
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        unsigned scalar = neglog1m8(u + i, out + i);
        while (scalar != 0) {
            const auto lane = static_cast<std::size_t>(std::countr_zero(scalar));
            out[i + lane] = -std::log1p(-u[i + lane]);
            scalar &= scalar - 1;
        }
    }
    neglog1m_block_libm(u + i, out + i, n - i);
    return true;
}

#else

bool neglog1m_block_avx512(const double*, double*, std::size_t) noexcept { return false; }

#endif

}  // namespace detail

namespace {

constexpr std::uint64_t kProbeSeed = 0x6c6f67317031ULL;

// True when the kernel returns libm's bits for every input in u[0, n).
bool agrees(const double* u, std::size_t n) {
    std::array<double, BlockRng::kBlock> fast;
    std::array<double, BlockRng::kBlock> ref;
    for (std::size_t at = 0; at < n; at += fast.size()) {
        const std::size_t m = std::min(fast.size(), n - at);
        if (!detail::neglog1m_block_avx512(u + at, fast.data(), m)) return false;
        detail::neglog1m_block_libm(u + at, ref.data(), m);
        for (std::size_t i = 0; i < m; ++i) {
            if (std::bit_cast<std::uint64_t>(fast[i]) != std::bit_cast<std::uint64_t>(ref[i]))
                return false;
        }
    }
    return true;
}

// The probe: the kernel's branch boundaries, where a wrong constant or a
// stray FMA shows first, then a few thousand seeded uniforms.
bool kernel_matches_libm() {
    std::array<double, 64> edges{};
    std::size_t n = 0;
    for (double v : {0.0, 0x1p-60, 0x1p-54, 0x1p-30, 0x1p-29, 0x1p-28, 0.25, 0.5, 0.75,
                     0.875, 0.9375, std::nextafter(1.0, 0.0)}) {
        edges[n++] = v;
    }
    // -u high words on the tiny-argument and k = 0 boundaries.
    for (std::uint64_t hi : {0x3e1fffffULL, 0x3e200000ULL, 0x3fd2bec3ULL, 0x3fd2bec4ULL}) {
        for (std::uint64_t lo : {0x0ULL, 0x1ULL, 0x7fffffffULL, 0xffffffffULL})
            edges[n++] = std::bit_cast<double>(hi << 32 | lo);
    }
    // 1 - u on both sides of the 0x6a09e normalization switch.
    for (std::uint64_t e = 1; e <= 4; ++e) {
        for (std::uint64_t hm : {0x6a09dULL, 0x6a09eULL, 0x6a09fULL})
            edges[n++] = 1.0 - std::bit_cast<double>(((1023 - e) << 20 | hm) << 32 | 0x12345ULL);
    }
    if (!agrees(edges.data(), n)) return false;

    RandomStream stream(substream_seed(kProbeSeed, 0, component_id("sim.neglog1m.probe")));
    std::array<double, BlockRng::kBlock> u;
    for (int round = 0; round < 8; ++round) {
        stream.fill_uniforms(u.data(), u.size());
        if (!agrees(u.data(), u.size())) return false;
    }
    return true;
}

bool use_kernel() {
    static const bool ok = kernel_matches_libm();
    return ok;
}

}  // namespace

void neglog1m_block(const double* u, double* out, std::size_t n) noexcept {
    if (use_kernel()) {
        detail::neglog1m_block_avx512(u, out, n);
    } else {
        detail::neglog1m_block_libm(u, out, n);
    }
}

const char* neglog1m_path() noexcept { return use_kernel() ? "avx512" : "libm"; }

}  // namespace hap::sim
