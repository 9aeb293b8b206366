// Unit tests: FFT, Poisson solve, spectral derivatives.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numbers>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fft/fft.hpp"

namespace sickle::fft {
namespace {

constexpr double kPi = std::numbers::pi;

// The recurrence radix-2 kernel every transform must reproduce bit for
// bit: bit-reverse, then per stage a butterfly whose twiddle advances by
// `w *= wlen`, one fresh heap line and column gather per strided line.
// It is the reference of the oracle tests below and must not be
// "optimized" — its arithmetic is the contract (see fft.hpp).
namespace ref {

void bit_reverse(std::span<cplx> a) {
  const std::size_t n = a.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
}

void transform(std::span<cplx> data, bool inverse) {
  const std::size_t n = data.size();
  if (n <= 1) return;
  bit_reverse(data);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang =
        (inverse ? 2.0 : -2.0) * std::numbers::pi / static_cast<double>(len);
    const cplx wlen(std::cos(ang), std::sin(ang));
    for (std::size_t i = 0; i < n; i += len) {
      cplx w(1.0, 0.0);
      for (std::size_t j = 0; j < len / 2; ++j) {
        const cplx u = data[i + j];
        const cplx v = data[i + j + len / 2] * w;
        data[i + j] = u + v;
        data[i + j + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (auto& x : data) x *= inv_n;
  }
}

void transform_lines(cplx* data, std::size_t n, std::size_t stride,
                     std::size_t count, std::size_t dist, bool inverse) {
  std::vector<cplx> line(n);
  for (std::size_t c = 0; c < count; ++c) {
    cplx* base = data + c * dist;
    if (stride == 1) {
      transform(std::span<cplx>(base, n), inverse);
    } else {
      for (std::size_t i = 0; i < n; ++i) line[i] = base[i * stride];
      transform(std::span<cplx>(line), inverse);
      for (std::size_t i = 0; i < n; ++i) base[i * stride] = line[i];
    }
  }
}

void transform_2d(std::span<cplx> data, std::size_t nx, std::size_t ny,
                  bool inverse) {
  transform_lines(data.data(), ny, 1, nx, ny, inverse);
  for (std::size_t iy = 0; iy < ny; ++iy) {
    transform_lines(data.data() + iy, nx, ny, 1, 0, inverse);
  }
}

void transform_3d(std::span<cplx> data, std::size_t nx, std::size_t ny,
                  std::size_t nz, bool inverse) {
  transform_lines(data.data(), nz, 1, nx * ny, nz, inverse);
  for (std::size_t ix = 0; ix < nx; ++ix) {
    for (std::size_t iz = 0; iz < nz; ++iz) {
      transform_lines(data.data() + ix * ny * nz + iz, ny, nz, 1, 0, inverse);
    }
  }
  for (std::size_t iy = 0; iy < ny; ++iy) {
    for (std::size_t iz = 0; iz < nz; ++iz) {
      transform_lines(data.data() + iy * nz + iz, nx, ny * nz, 1, 0, inverse);
    }
  }
}

std::vector<double> spectral_derivative_3d(std::span<const double> field,
                                           std::size_t nx, std::size_t ny,
                                           std::size_t nz, int axis) {
  std::vector<cplx> hat(field.size());
  for (std::size_t i = 0; i < field.size(); ++i) hat[i] = cplx(field[i], 0.0);
  transform_3d(std::span<cplx>(hat), nx, ny, nz, false);
  const cplx I(0.0, 1.0);
  for (std::size_t ix = 0; ix < nx; ++ix) {
    const double kx = wavenumber(ix, nx);
    for (std::size_t iy = 0; iy < ny; ++iy) {
      const double ky = wavenumber(iy, ny);
      for (std::size_t iz = 0; iz < nz; ++iz) {
        const double kz = wavenumber(iz, nz);
        const double k = (axis == 0) ? kx : (axis == 1) ? ky : kz;
        hat[(ix * ny + iy) * nz + iz] *= I * k;
      }
    }
  }
  const std::size_t n = (axis == 0) ? nx : (axis == 1) ? ny : nz;
  if (n >= 2) {
    for (std::size_t ix = 0; ix < nx; ++ix) {
      for (std::size_t iy = 0; iy < ny; ++iy) {
        for (std::size_t iz = 0; iz < nz; ++iz) {
          const std::size_t i_ax = (axis == 0) ? ix : (axis == 1) ? iy : iz;
          if (i_ax == n / 2) hat[(ix * ny + iy) * nz + iz] = cplx(0.0, 0.0);
        }
      }
    }
  }
  transform_3d(std::span<cplx>(hat), nx, ny, nz, true);
  std::vector<double> out(field.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = hat[i].real();
  return out;
}

}  // namespace ref

template <typename T>
bool bitwise_equal(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

std::vector<cplx> random_complex(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<cplx> data(n);
  for (auto& x : data) x = cplx(rng.normal(), rng.normal());
  return data;
}

std::vector<double> random_real(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> data(n);
  for (auto& x : data) x = rng.normal();
  return data;
}

TEST(Fft, RoundTripIdentity) {
  Rng rng(1);
  std::vector<cplx> data(256);
  for (auto& x : data) x = cplx(rng.normal(), rng.normal());
  auto copy = data;
  forward(std::span<cplx>(data));
  inverse(std::span<cplx>(data));
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i].real(), copy[i].real(), 1e-10);
    EXPECT_NEAR(data[i].imag(), copy[i].imag(), 1e-10);
  }
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<cplx> data(12);
  EXPECT_THROW(forward(std::span<cplx>(data)), CheckError);
}

TEST(Fft, DeltaTransformsToConstant) {
  std::vector<cplx> data(64, cplx(0, 0));
  data[0] = cplx(1, 0);
  forward(std::span<cplx>(data));
  for (const auto& x : data) {
    EXPECT_NEAR(x.real(), 1.0, 1e-12);
    EXPECT_NEAR(x.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, SinusoidPeaksAtItsFrequency) {
  const std::size_t n = 128;
  std::vector<cplx> data(n);
  const int k = 5;
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = cplx(std::cos(2.0 * kPi * k * static_cast<double>(i) / n), 0.0);
  }
  forward(std::span<cplx>(data));
  // cos -> two peaks of magnitude n/2 at bins k and n-k.
  EXPECT_NEAR(std::abs(data[k]), n / 2.0, 1e-8);
  EXPECT_NEAR(std::abs(data[n - k]), n / 2.0, 1e-8);
  for (std::size_t i = 0; i < n; ++i) {
    if (i != static_cast<std::size_t>(k) && i != n - k) {
      EXPECT_LT(std::abs(data[i]), 1e-8);
    }
  }
}

TEST(Fft, ParsevalHolds) {
  Rng rng(2);
  const std::size_t n = 512;
  std::vector<cplx> data(n);
  double time_energy = 0.0;
  for (auto& x : data) {
    x = cplx(rng.normal(), 0.0);
    time_energy += std::norm(x);
  }
  forward(std::span<cplx>(data));
  double freq_energy = 0.0;
  for (const auto& x : data) freq_energy += std::norm(x);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy, 1e-6);
}

TEST(Fft, RoundTrip2D) {
  Rng rng(3);
  const std::size_t nx = 16, ny = 8;
  std::vector<cplx> data(nx * ny);
  for (auto& x : data) x = cplx(rng.normal(), 0.0);
  auto copy = data;
  transform_2d(std::span<cplx>(data), nx, ny, false);
  transform_2d(std::span<cplx>(data), nx, ny, true);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i].real(), copy[i].real(), 1e-10);
  }
}

TEST(Fft, RoundTrip3D) {
  Rng rng(4);
  const std::size_t nx = 8, ny = 4, nz = 16;
  std::vector<cplx> data(nx * ny * nz);
  for (auto& x : data) x = cplx(rng.normal(), 0.0);
  auto copy = data;
  transform_3d(std::span<cplx>(data), nx, ny, nz, false);
  transform_3d(std::span<cplx>(data), nx, ny, nz, true);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i].real(), copy[i].real(), 1e-10);
    EXPECT_NEAR(data[i].imag(), 0.0, 1e-10);
  }
}

TEST(Fft, WavenumberMapping) {
  EXPECT_DOUBLE_EQ(wavenumber(0, 8), 0.0);
  EXPECT_DOUBLE_EQ(wavenumber(3, 8), 3.0);
  EXPECT_DOUBLE_EQ(wavenumber(4, 8), -4.0);
  EXPECT_DOUBLE_EQ(wavenumber(7, 8), -1.0);
}

TEST(Fft, SpectralDerivativeOfSine) {
  const std::size_t n = 32;
  std::vector<double> f(n * n * n);
  for (std::size_t ix = 0; ix < n; ++ix) {
    const double x = 2.0 * kPi * static_cast<double>(ix) / n;
    for (std::size_t iy = 0; iy < n; ++iy) {
      for (std::size_t iz = 0; iz < n; ++iz) {
        f[(ix * n + iy) * n + iz] = std::sin(2.0 * x);
      }
    }
  }
  const auto df = spectral_derivative_3d(f, n, n, n, 0);
  for (std::size_t ix = 0; ix < n; ++ix) {
    const double x = 2.0 * kPi * static_cast<double>(ix) / n;
    EXPECT_NEAR(df[(ix * n) * n], 2.0 * std::cos(2.0 * x), 1e-8);
  }
}

TEST(Fft, PoissonSolveInvertsLaplacian) {
  // u = sin(x) cos(2y) => lap u = -(1 + 4) u = -5u. Feed rhs = -5u and
  // expect u back (zero-mean gauge holds since u has no k=0 component).
  const std::size_t n = 16;
  std::vector<double> u(n * n * n), rhs(n * n * n);
  for (std::size_t ix = 0; ix < n; ++ix) {
    const double x = 2.0 * kPi * static_cast<double>(ix) / n;
    for (std::size_t iy = 0; iy < n; ++iy) {
      const double y = 2.0 * kPi * static_cast<double>(iy) / n;
      for (std::size_t iz = 0; iz < n; ++iz) {
        const std::size_t idx = (ix * n + iy) * n + iz;
        u[idx] = std::sin(x) * std::cos(2.0 * y);
        rhs[idx] = -5.0 * u[idx];
      }
    }
  }
  const auto solved = poisson_solve_3d(rhs, n, n, n);
  for (std::size_t i = 0; i < u.size(); ++i) {
    EXPECT_NEAR(solved[i], u[i], 1e-8);
  }
}

TEST(Fft, PoissonZeroRhsGivesZero) {
  const std::size_t n = 8;
  const std::vector<double> rhs(n * n * n, 0.0);
  const auto solved = poisson_solve_3d(rhs, n, n, n);
  for (const double v : solved) EXPECT_NEAR(v, 0.0, 1e-12);
}

TEST(Fft, PoissonGaugesOutMean) {
  // Constant rhs has only a k=0 component, which the solver gauges away.
  const std::size_t n = 8;
  const std::vector<double> rhs(n * n * n, 3.0);
  const auto solved = poisson_solve_3d(rhs, n, n, n);
  for (const double v : solved) EXPECT_NEAR(v, 0.0, 1e-10);
}

TEST(FftOracle, TransformMatchesRecurrenceKernelBitwise) {
  for (std::size_t n = 1; n <= 4096; n <<= 1) {
    for (const bool inverse : {false, true}) {
      auto got = random_complex(n, 100 + n);
      auto want = got;
      transform(std::span<cplx>(got), inverse);
      ref::transform(std::span<cplx>(want), inverse);
      EXPECT_TRUE(bitwise_equal(got, want))
          << "n=" << n << " inverse=" << inverse;
    }
  }
}

TEST(FftOracle, StridedLinesMatchRecurrenceKernelBitwise) {
  struct Case {
    std::size_t n, stride, count, dist, size;
  };
  // Contiguous lines, adjacent strided lines (a full and a partial batch),
  // and strided lines that are themselves spread out (dist > 1).
  const Case cases[] = {{32, 1, 5, 32, 160},
                        {16, 12, 12, 1, 192},
                        {64, 20, 20, 1, 1280},
                        {8, 10, 5, 2, 80},
                        {4, 3, 1, 0, 12}};
  for (const auto& c : cases) {
    for (const bool inverse : {false, true}) {
      auto got = random_complex(c.size, 7 + c.n);
      auto want = got;
      transform_lines(got.data(), c.n, c.stride, c.count, c.dist, inverse);
      ref::transform_lines(want.data(), c.n, c.stride, c.count, c.dist,
                           inverse);
      EXPECT_TRUE(bitwise_equal(got, want))
          << "n=" << c.n << " stride=" << c.stride << " count=" << c.count
          << " dist=" << c.dist << " inverse=" << inverse;
    }
  }
}

TEST(FftOracle, Transform2DMatchesRecurrenceKernelBitwise) {
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {16, 8}, {1, 32}, {32, 1}, {64, 64}, {4, 128}};
  for (const auto& [nx, ny] : shapes) {
    for (const bool inverse : {false, true}) {
      auto got = random_complex(nx * ny, nx * 1000 + ny);
      auto want = got;
      transform_2d(std::span<cplx>(got), nx, ny, inverse);
      ref::transform_2d(std::span<cplx>(want), nx, ny, inverse);
      EXPECT_TRUE(bitwise_equal(got, want))
          << nx << "x" << ny << " inverse=" << inverse;
    }
  }
}

TEST(FftOracle, Transform3DMatchesRecurrenceKernelBitwise) {
  const std::array<std::size_t, 3> shapes[] = {
      {64, 64, 32}, {8, 1, 16}, {2, 4, 1}, {1, 1, 1}};
  for (const auto& [nx, ny, nz] : shapes) {
    for (const bool inverse : {false, true}) {
      auto got = random_complex(nx * ny * nz, nx * 10000 + ny * 100 + nz);
      auto want = got;
      transform_3d(std::span<cplx>(got), nx, ny, nz, inverse);
      ref::transform_3d(std::span<cplx>(want), nx, ny, nz, inverse);
      EXPECT_TRUE(bitwise_equal(got, want))
          << nx << "x" << ny << "x" << nz << " inverse=" << inverse;
    }
  }
}

TEST(FftOracle, SharedForwardGradientMatchesThreeDerivativesBitwise) {
  const std::array<std::size_t, 3> shapes[] = {
      {16, 8, 4}, {8, 1, 16}, {32, 32, 16}, {1, 1, 1}};
  for (const auto& [nx, ny, nz] : shapes) {
    const auto f = random_real(nx * ny * nz, nx + ny + nz);
    const auto grad = spectral_gradient_3d(f, nx, ny, nz);
    for (int axis = 0; axis < 3; ++axis) {
      const auto want = ref::spectral_derivative_3d(f, nx, ny, nz, axis);
      EXPECT_TRUE(bitwise_equal(grad[axis], want))
          << nx << "x" << ny << "x" << nz << " axis=" << axis;
      EXPECT_TRUE(
          bitwise_equal(spectral_derivative_3d(f, nx, ny, nz, axis), want))
          << nx << "x" << ny << "x" << nz << " axis=" << axis;
    }
  }
}

}  // namespace
}  // namespace sickle::fft
