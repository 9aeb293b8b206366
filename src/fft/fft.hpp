// Minimal self-contained FFT for spectral turbulence synthesis.
//
// The paper's GESTS substrate is a Fourier pseudo-spectral DNS code; our
// synthetic isotropic/stratified generators and the spectral pressure
// Poisson solve need multidimensional FFTs. FFTW is not available offline,
// so this module implements an iterative radix-2 Cooley–Tukey transform —
// all SICKLE grids are power-of-two sized by construction.
//
// Conventions: forward transform has no normalization; inverse divides by N
// (so inverse(forward(x)) == x).
//
// Plans. Every entry point builds a per-length plan for the call: the
// bit-reversal swap list plus each stage's twiddle factors. Plans live on
// the caller's stack — there is no global or static cache, so concurrent
// callers (daemon cases run side by side) share no mutable state. The
// strided passes of the 2D/3D transforms gather 8 adjacent lines into one
// reused scratch buffer, transform them contiguously and scatter them back.
//
// Bit-identity contract. Outputs are bit-for-bit those of the plain
// iterative kernel: bit-reverse, then for len = 2, 4, ..., n a butterfly
// `u = a[j]; v = a[j + len/2] * w; a[j] = u + v; a[j + len/2] = u - v`
// with w starting at (1, 0) and advanced by `w *= wlen`, where wlen =
// (cos(ang), sin(ang)) and ang = -2*pi/len (forward) or +2*pi/len
// (inverse); the inverse then scales by 1/n. The plan stores exactly that
// w sequence. Every generated dataset, store
// file and sample hash downstream depends on these bits: changing
// the twiddle recurrence, the butterfly order, the scaling, or skipping
// multiplications by unit twiddles changes every hash.
// tests/test_fft.cpp pins the contract against a copy of that kernel.
#pragma once

#include <array>
#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace sickle::fft {

using cplx = std::complex<double>;

/// In-place forward/inverse radix-2 FFT. data.size() must be a power of two.
void transform(std::span<cplx> data, bool inverse);

/// Convenience forward/inverse wrappers.
inline void forward(std::span<cplx> data) { transform(data, false); }
inline void inverse(std::span<cplx> data) { transform(data, true); }

/// Out-of-place strided transform used to build multidimensional FFTs.
/// Transforms `count` interleaved lines of length n with stride `stride`
/// starting at offsets 0..count-1 * `dist`.
void transform_lines(cplx* data, std::size_t n, std::size_t stride,
                     std::size_t count, std::size_t dist, bool inverse);

/// 3D FFT over a contiguous nz-fastest array: index = (ix*ny + iy)*nz + iz.
/// All three extents must be powers of two.
void transform_3d(std::span<cplx> data, std::size_t nx, std::size_t ny,
                  std::size_t nz, bool inverse);

/// 2D FFT, ny-fastest: index = ix*ny + iy.
void transform_2d(std::span<cplx> data, std::size_t nx, std::size_t ny,
                  bool inverse);

/// Signed integer wavenumber for FFT bin i of an n-point transform:
/// 0,1,...,n/2-1, -n/2, ..., -1.
[[nodiscard]] inline double wavenumber(std::size_t i, std::size_t n) noexcept {
  return (i <= n / 2 - 1 || n <= 1) ? static_cast<double>(i)
                                    : static_cast<double>(i) -
                                          static_cast<double>(n);
}

/// Solve the periodic Poisson equation lap(u) = rhs on an nx*ny*nz grid of
/// physical extent (2*pi)^3 via diagonalization in Fourier space. The mean
/// mode is gauged to zero. rhs and the result are real fields stored
/// nz-fastest.
[[nodiscard]] std::vector<double> poisson_solve_3d(std::span<const double> rhs,
                                                   std::size_t nx,
                                                   std::size_t ny,
                                                   std::size_t nz);

/// Spectral derivative of a real periodic field along the given axis
/// (0 = x slowest, 2 = z fastest); domain extent 2*pi per axis. The
/// Nyquist plane of that axis is zeroed.
[[nodiscard]] std::vector<double> spectral_derivative_3d(
    std::span<const double> field, std::size_t nx, std::size_t ny,
    std::size_t nz, int axis);

/// All three spectral derivatives {d/dx, d/dy, d/dz} from one shared
/// forward transform (4 3D FFTs instead of 6). Each component is
/// bit-identical to the matching spectral_derivative_3d call: both run
/// the same derivative kernel.
[[nodiscard]] std::array<std::vector<double>, 3> spectral_gradient_3d(
    std::span<const double> field, std::size_t nx, std::size_t ny,
    std::size_t nz);

}  // namespace sickle::fft
