#include "fft/fft.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <utility>

#include "common/error.hpp"
#include "common/mathx.hpp"

namespace sickle::fft {

namespace {

/// Adjacent strided lines gathered per batch: 8 lines of one row fill two
/// 64-byte cache lines of complex doubles per gathered element.
constexpr std::size_t kLineBatch = 8;

/// Everything a length-n transform needs besides the data: the
/// bit-reversal swap list and every stage's twiddles, concatenated by
/// stage (len/2 factors for stage `len`, n - 1 in total). The twiddles
/// come from the same `w *= wlen` recurrence the butterflies once ran
/// inline, so each factor — and therefore every output — is bit-identical
/// to the recurrence kernel. Plans are immutable and built per call:
/// there is no shared cache, so concurrent callers never contend.
class Plan {
 public:
  Plan(std::size_t n, bool inverse) : n_(n), inverse_(inverse) {
    SICKLE_CHECK_MSG(is_pow2(n), "FFT length must be a power of two");
    SICKLE_CHECK_MSG(n <= (std::size_t{1} << 32), "FFT length above 2^32");
    swaps_.reserve(n / 2);
    for (std::size_t i = 1, j = 0; i < n; ++i) {
      std::size_t bit = n >> 1;
      for (; j & bit; bit >>= 1) j ^= bit;
      j ^= bit;
      if (i < j) {
        swaps_.emplace_back(static_cast<std::uint32_t>(i),
                            static_cast<std::uint32_t>(j));
      }
    }
    twiddles_.reserve(n - 1);
    for (std::size_t len = 2; len <= n; len <<= 1) {
      const double ang =
          (inverse ? 2.0 : -2.0) * std::numbers::pi / static_cast<double>(len);
      const cplx wlen(std::cos(ang), std::sin(ang));
      cplx w(1.0, 0.0);
      for (std::size_t j = 0; j < len / 2; ++j) {
        twiddles_.push_back(w);
        w *= wlen;
      }
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  /// In-place transform of one contiguous line of size() points.
  void execute(cplx* a) const {
    if (n_ <= 1) return;
    for (const auto& [i, j] : swaps_) std::swap(a[i], a[j]);
    const cplx* tw = twiddles_.data();
    for (std::size_t half = 1; half < n_; half <<= 1) {
      for (std::size_t i = 0; i < n_; i += 2 * half) {
        cplx* lo = a + i;
        cplx* hi = lo + half;
        for (std::size_t j = 0; j < half; ++j) {
          const cplx u = lo[j];
          const cplx v = hi[j] * tw[j];
          lo[j] = u + v;
          hi[j] = u - v;
        }
      }
      tw += half;
    }
    if (inverse_) {
      const double inv_n = 1.0 / static_cast<double>(n_);
      for (std::size_t i = 0; i < n_; ++i) a[i] *= inv_n;
    }
  }

 private:
  std::size_t n_;
  bool inverse_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> swaps_;
  std::vector<cplx> twiddles_;
};

/// Transform `count` lines of plan.size() points, line c starting at
/// data + c*dist with element stride `stride`. Strided lines are gathered
/// kLineBatch at a time into `scratch` (adjacent lines share cache lines
/// when dist is small), transformed contiguously, and scattered back.
void run_lines(const Plan& plan, cplx* data, std::size_t stride,
               std::size_t count, std::size_t dist,
               std::vector<cplx>& scratch) {
  const std::size_t n = plan.size();
  if (stride == 1) {
    for (std::size_t c = 0; c < count; ++c) plan.execute(data + c * dist);
    return;
  }
  scratch.resize(kLineBatch * n);
  for (std::size_t c0 = 0; c0 < count; c0 += kLineBatch) {
    const std::size_t lines = std::min(kLineBatch, count - c0);
    cplx* base = data + c0 * dist;
    for (std::size_t i = 0; i < n; ++i) {
      const cplx* src = base + i * stride;
      for (std::size_t b = 0; b < lines; ++b) {
        scratch[b * n + i] = src[b * dist];
      }
    }
    for (std::size_t b = 0; b < lines; ++b) plan.execute(&scratch[b * n]);
    for (std::size_t i = 0; i < n; ++i) {
      cplx* dst = base + i * stride;
      for (std::size_t b = 0; b < lines; ++b) {
        dst[b * dist] = scratch[b * n + i];
      }
    }
  }
}

/// The three per-axis plans of one 3D transform direction.
struct Plan3D {
  Plan x, y, z;
  Plan3D(std::size_t nx, std::size_t ny, std::size_t nz, bool inverse)
      : x(nx, inverse), y(ny, inverse), z(nz, inverse) {}
};

void run_3d(const Plan3D& plan, cplx* data, std::vector<cplx>& scratch) {
  const std::size_t nx = plan.x.size();
  const std::size_t ny = plan.y.size();
  const std::size_t nz = plan.z.size();
  // z lines: contiguous, one per (ix, iy).
  run_lines(plan.z, data, 1, nx * ny, nz, scratch);
  // y lines: stride nz; the nz lines of one x-slab are adjacent.
  for (std::size_t ix = 0; ix < nx; ++ix) {
    run_lines(plan.y, data + ix * ny * nz, nz, nz, 1, scratch);
  }
  // x lines: stride ny*nz; all ny*nz lines are adjacent.
  run_lines(plan.x, data, ny * nz, ny * nz, 1, scratch);
}

/// Forward transform of a real field into a fresh spectrum.
std::vector<cplx> forward_real(std::span<const double> field,
                               const Plan3D& plan,
                               std::vector<cplx>& scratch) {
  std::vector<cplx> hat(field.size());
  for (std::size_t i = 0; i < field.size(); ++i) hat[i] = cplx(field[i], 0.0);
  run_3d(plan, hat.data(), scratch);
  return hat;
}

/// The one spectral-derivative kernel: overwrites `hat` (the forward
/// spectrum of a real field) with i*k_axis*hat, zeroing the axis's Nyquist
/// plane, and returns the real part of its inverse transform. The Nyquist
/// mode of an odd operator (i*k) has no well-defined sign for a real
/// signal; wavenumber() maps it to -n/2, so it is zeroed instead.
std::vector<double> derivative_from_spectrum(std::vector<cplx>& hat,
                                             const Plan3D& inv, int axis,
                                             std::vector<cplx>& scratch) {
  const std::size_t nx = inv.x.size();
  const std::size_t ny = inv.y.size();
  const std::size_t nz = inv.z.size();
  const std::size_t n_ax = (axis == 0) ? nx : (axis == 1) ? ny : nz;
  // A length-1 axis has no Nyquist plane; n_ax is past every index.
  const std::size_t nyquist = (n_ax < 2) ? n_ax : n_ax / 2;
  const cplx I(0.0, 1.0);
  for (std::size_t ix = 0; ix < nx; ++ix) {
    const double kx = wavenumber(ix, nx);
    for (std::size_t iy = 0; iy < ny; ++iy) {
      const double ky = wavenumber(iy, ny);
      for (std::size_t iz = 0; iz < nz; ++iz) {
        const double kz = wavenumber(iz, nz);
        const std::size_t i_ax = (axis == 0) ? ix : (axis == 1) ? iy : iz;
        const double k = (axis == 0) ? kx : (axis == 1) ? ky : kz;
        const std::size_t idx = (ix * ny + iy) * nz + iz;
        if (i_ax == nyquist) {
          hat[idx] = cplx(0.0, 0.0);
        } else {
          hat[idx] *= I * k;
        }
      }
    }
  }
  run_3d(inv, hat.data(), scratch);
  std::vector<double> out(hat.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = hat[i].real();
  return out;
}

}  // namespace

void transform(std::span<cplx> data, bool inverse) {
  Plan(data.size(), inverse).execute(data.data());
}

void transform_lines(cplx* data, std::size_t n, std::size_t stride,
                     std::size_t count, std::size_t dist, bool inverse) {
  std::vector<cplx> scratch;
  run_lines(Plan(n, inverse), data, stride, count, dist, scratch);
}

void transform_2d(std::span<cplx> data, std::size_t nx, std::size_t ny,
                  bool inverse) {
  SICKLE_CHECK(data.size() == nx * ny);
  std::vector<cplx> scratch;
  // Rows (contiguous along y), then columns (stride ny, all adjacent).
  run_lines(Plan(ny, inverse), data.data(), 1, nx, ny, scratch);
  run_lines(Plan(nx, inverse), data.data(), ny, ny, 1, scratch);
}

void transform_3d(std::span<cplx> data, std::size_t nx, std::size_t ny,
                  std::size_t nz, bool inverse) {
  SICKLE_CHECK(data.size() == nx * ny * nz);
  std::vector<cplx> scratch;
  run_3d(Plan3D(nx, ny, nz, inverse), data.data(), scratch);
}

std::vector<double> poisson_solve_3d(std::span<const double> rhs,
                                     std::size_t nx, std::size_t ny,
                                     std::size_t nz) {
  SICKLE_CHECK(rhs.size() == nx * ny * nz);
  std::vector<cplx> scratch;
  std::vector<cplx> hat =
      forward_real(rhs, Plan3D(nx, ny, nz, false), scratch);

  for (std::size_t ix = 0; ix < nx; ++ix) {
    const double kx = wavenumber(ix, nx);
    for (std::size_t iy = 0; iy < ny; ++iy) {
      const double ky = wavenumber(iy, ny);
      for (std::size_t iz = 0; iz < nz; ++iz) {
        const double kz = wavenumber(iz, nz);
        const double k2 = kx * kx + ky * ky + kz * kz;
        const std::size_t idx = (ix * ny + iy) * nz + iz;
        // Gauge: zero-mean solution (k = 0 mode removed).
        hat[idx] = (k2 > 0.0) ? hat[idx] / (-k2) : cplx(0.0, 0.0);
      }
    }
  }

  run_3d(Plan3D(nx, ny, nz, true), hat.data(), scratch);
  std::vector<double> out(rhs.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = hat[i].real();
  return out;
}

std::array<std::vector<double>, 3> spectral_gradient_3d(
    std::span<const double> field, std::size_t nx, std::size_t ny,
    std::size_t nz) {
  SICKLE_CHECK(field.size() == nx * ny * nz);
  std::vector<cplx> scratch;
  std::vector<cplx> hat =
      forward_real(field, Plan3D(nx, ny, nz, false), scratch);
  const Plan3D inv(nx, ny, nz, true);
  std::array<std::vector<double>, 3> grad;
  {
    std::vector<cplx> work;
    for (int axis = 0; axis < 2; ++axis) {
      work = hat;
      grad[axis] = derivative_from_spectrum(work, inv, axis, scratch);
    }
  }
  // The last axis consumes the shared spectrum itself: no copy, and with
  // `work` already freed at most two spectra are ever live.
  grad[2] = derivative_from_spectrum(hat, inv, 2, scratch);
  return grad;
}

std::vector<double> spectral_derivative_3d(std::span<const double> field,
                                           std::size_t nx, std::size_t ny,
                                           std::size_t nz, int axis) {
  SICKLE_CHECK(field.size() == nx * ny * nz);
  SICKLE_CHECK(axis >= 0 && axis <= 2);
  std::vector<cplx> scratch;
  std::vector<cplx> hat =
      forward_real(field, Plan3D(nx, ny, nz, false), scratch);
  return derivative_from_spectrum(hat, Plan3D(nx, ny, nz, true), axis,
                                  scratch);
}

}  // namespace sickle::fft
