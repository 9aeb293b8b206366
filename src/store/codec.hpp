/// @file codec.hpp
/// @brief Pluggable per-chunk codecs for the SKL3 series store.
///
/// Each chunk of a stored field is encoded independently by one codec, so
/// chunks decompress in isolation (random access) and encode in parallel.
/// The built-ins cover the size-vs-fidelity spectrum the storage
/// experiments sweep:
///   - "raw":     memcpy of the doubles (baseline, lossless).
///   - "delta":   XOR-delta of consecutive IEEE-754 bit patterns with
///                nibble-packed significant-byte counts (lossless; smooth
///                fields share exponent/high-mantissa bits, so deltas are
///                short).
///   - "quant":   uniform scalar quantization with a user-set absolute
///                tolerance (lossy; max reconstruction error <= tolerance).
///   - "gorilla": bit-granular XOR of consecutive values with
///                leading/trailing-zero-run windows (Gorilla-style;
///                lossless, strictly finer-grained than "delta").
///   - "zstd":    general-purpose entropy compression of the raw bytes
///                (lossless; only when built with -DSICKLE_WITH_ZSTD=ON).
/// Framing details are documented in docs/STORE.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace sickle::store {

/// On-disk codec identifiers (stored in the SKL3 header; stable).
enum class CodecId : std::uint8_t {
  kRaw = 0,
  kDelta = 1,
  kQuant = 2,
  kGorilla = 3,
  kZstd = 4,
};

/// Encode/decode one chunk of doubles to/from a self-contained byte block.
class Codec {
 public:
  virtual ~Codec() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual CodecId id() const noexcept = 0;
  [[nodiscard]] virtual bool lossless() const noexcept = 0;

  [[nodiscard]] virtual std::vector<std::uint8_t> encode(
      std::span<const double> values) const = 0;

  /// Decode exactly `count` values (the chunk's point count, known from the
  /// store layout). Throws RuntimeError on malformed blocks.
  [[nodiscard]] virtual std::vector<double> decode(
      std::span<const std::uint8_t> block, std::size_t count) const = 0;
};

/// Lossless memcpy baseline.
class RawCodec final : public Codec {
 public:
  [[nodiscard]] std::string name() const override { return "raw"; }
  [[nodiscard]] CodecId id() const noexcept override { return CodecId::kRaw; }
  [[nodiscard]] bool lossless() const noexcept override { return true; }
  [[nodiscard]] std::vector<std::uint8_t> encode(
      std::span<const double> values) const override;
  [[nodiscard]] std::vector<double> decode(
      std::span<const std::uint8_t> block,
      std::size_t count) const override;
};

/// Lossless XOR-delta + byte-packing. Each value's bit pattern is XORed
/// with its predecessor; the delta's significant byte count (0..8) is
/// stored in a nibble array, followed by only those bytes.
class DeltaCodec final : public Codec {
 public:
  [[nodiscard]] std::string name() const override { return "delta"; }
  [[nodiscard]] CodecId id() const noexcept override {
    return CodecId::kDelta;
  }
  [[nodiscard]] bool lossless() const noexcept override { return true; }
  [[nodiscard]] std::vector<std::uint8_t> encode(
      std::span<const double> values) const override;
  [[nodiscard]] std::vector<double> decode(
      std::span<const std::uint8_t> block,
      std::size_t count) const override;
};

/// Lossy uniform quantization: q = round((x - min) / step) with
/// step = 2 * tolerance, bit-packed at the minimum width covering the
/// chunk's range. Guarantees |decoded - x| <= tolerance. Chunks whose
/// range would need implausibly many levels (or contain non-finite
/// values) fall back to an embedded raw block, preserving the tolerance
/// contract trivially.
class QuantCodec final : public Codec {
 public:
  /// `tolerance` must be positive.
  explicit QuantCodec(double tolerance);

  [[nodiscard]] std::string name() const override { return "quant"; }
  [[nodiscard]] CodecId id() const noexcept override {
    return CodecId::kQuant;
  }
  [[nodiscard]] bool lossless() const noexcept override { return false; }
  [[nodiscard]] double tolerance() const noexcept { return tolerance_; }
  [[nodiscard]] std::vector<std::uint8_t> encode(
      std::span<const double> values) const override;
  [[nodiscard]] std::vector<double> decode(
      std::span<const std::uint8_t> block,
      std::size_t count) const override;

 private:
  double tolerance_;
};

/// Lossless Gorilla-style compression (Pelkonen et al., VLDB'15): each
/// value's bit pattern is XORed with its predecessor and the nonzero part
/// is written at bit granularity. Per value:
///   '0'                           -> XOR is zero (value repeats)
///   '1' '0' <m bits>              -> XOR fits the previous leading/
///                                    trailing-zero window (m bits wide)
///   '1' '1' <6b lead> <6b len-1>
///       <len bits>                -> new window
/// Operates on raw bit patterns, so NaN/Inf/denormals round-trip exactly.
class GorillaCodec final : public Codec {
 public:
  [[nodiscard]] std::string name() const override { return "gorilla"; }
  [[nodiscard]] CodecId id() const noexcept override {
    return CodecId::kGorilla;
  }
  [[nodiscard]] bool lossless() const noexcept override { return true; }
  [[nodiscard]] std::vector<std::uint8_t> encode(
      std::span<const double> values) const override;
  [[nodiscard]] std::vector<double> decode(
      std::span<const std::uint8_t> block,
      std::size_t count) const override;
};

#ifdef SICKLE_HAS_ZSTD
/// Lossless zstd compression of the chunk's raw bytes (stable simple API,
/// fixed compression level). Only compiled when -DSICKLE_WITH_ZSTD=ON;
/// requesting "zstd" from a build without it throws RuntimeError.
class ZstdCodec final : public Codec {
 public:
  /// `level` is a zstd compression level (clamped to the library's range).
  explicit ZstdCodec(int level = 3) noexcept : level_(level) {}

  [[nodiscard]] std::string name() const override { return "zstd"; }
  [[nodiscard]] CodecId id() const noexcept override { return CodecId::kZstd; }
  [[nodiscard]] bool lossless() const noexcept override { return true; }
  [[nodiscard]] std::vector<std::uint8_t> encode(
      std::span<const double> values) const override;
  [[nodiscard]] std::vector<double> decode(
      std::span<const std::uint8_t> block,
      std::size_t count) const override;

 private:
  int level_;
};
#endif  // SICKLE_HAS_ZSTD

/// Factory by config name ("raw" | "delta" | "quant" | "gorilla" |
/// "zstd"); throws RuntimeError for unknown names, and for "zstd" when the
/// build lacks zstd support. `tolerance` only affects "quant".
[[nodiscard]] std::unique_ptr<Codec> make_codec(const std::string& name,
                                                double tolerance = 1e-6);

/// Factory by on-disk id (used by the reader); throws for unknown ids.
[[nodiscard]] std::unique_ptr<Codec> make_codec(CodecId id, double tolerance);

/// All codec names available in this build, in CodecId order ("zstd" is
/// listed only when compiled in).
[[nodiscard]] std::vector<std::string> codec_names();

}  // namespace sickle::store
