// Block exponential inversion for BlockRng: out[i] = -std::log1p(-u[i]),
// bit for bit, for a whole block of uniforms at once.
//
// The exponential draw -log1p(-u)/rate defines the repo's golden sequences,
// so a faster inversion is only admissible if it returns the very doubles
// the host libm returns. On x86-64 builds with AVX-512F/DQ the block runs
// through an 8-lane transcription of glibc's fdlibm log1p (same operation
// order, same FMA placement as the FMA ifunc variant); lanes on the
// kernel's knife edges, and every lane on any other build, call
// std::log1p. A one-time probe compares the kernel with std::log1p on the
// first call and switches the process to the libm path if a single bit
// differs, so a foreign libm costs speed, never golden bytes.
// DESIGN.md section 4k has the derivation.
#pragma once

#include <cstddef>

namespace hap::sim {

// out[i] = -std::log1p(-u[i]) for i in [0, n), exactly. u and out must not
// overlap. Thread-safe; the first call runs the probe.
void neglog1m_block(const double* u, double* out, std::size_t n) noexcept;

// The path neglog1m_block() takes in this process: "avx512" when the kernel
// is compiled in and passed the probe, "libm" otherwise.
const char* neglog1m_path() noexcept;

namespace detail {

// The scalar reference path: a plain std::log1p loop.
void neglog1m_block_libm(const double* u, double* out, std::size_t n) noexcept;

// The vector kernel without the probe gate. Returns false (and writes
// nothing) when the build has no AVX-512F/DQ kernel.
bool neglog1m_block_avx512(const double* u, double* out, std::size_t n) noexcept;

}  // namespace detail

}  // namespace hap::sim
