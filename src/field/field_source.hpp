/// @file field_source.hpp
/// @brief Read-only field access abstraction for in-memory and out-of-core
/// snapshots.
///
/// The sampling pipeline *gathers* variable values at grid indices
/// (k-means fit subsets, per-cube point sets) and *scans* whole fields in
/// flat order (scaler fits, selection histograms); it never needs a whole
/// field span. FieldSource captures exactly that contract, so the same
/// selector/sampler code runs over an in-memory Snapshot (SnapshotSource,
/// zero-copy) or a chunked on-disk store (store::SeriesReader, LRU-cached)
/// without materializing the full grid.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "field/field.hpp"
#include "field/hypercube.hpp"

namespace sickle::field {

/// Read-only random access to named variables on a shared grid.
class FieldSource {
 public:
  virtual ~FieldSource() = default;

  [[nodiscard]] virtual const GridShape& shape() const noexcept = 0;

  /// Variable names, in a stable order.
  [[nodiscard]] virtual std::vector<std::string> variables() const = 0;

  [[nodiscard]] virtual bool has(const std::string& var) const = 0;

  /// Simulation time of the snapshot this source exposes. Sources without
  /// a time axis report 0.
  [[nodiscard]] virtual double time() const noexcept { return 0.0; }

  /// Receives consecutive pieces of one field scan (see for_each_flat).
  using FlatVisitor = std::function<void(std::span<const double>)>;

  /// Visit every value of `var` in global flat order, as consecutive
  /// spans: concatenated, the spans are the field's dense flat array. The
  /// streaming scan primitive behind temporal-selection histograms and
  /// training-set scaler fits. The flat order matters: accumulations see
  /// values in exactly the sequence an in-memory span scan would, which
  /// keeps streamed statistics bit-identical to in-memory ones whatever
  /// the span boundaries are. A span is valid only during its callback.
  /// Throws for unknown variables.
  virtual void for_each_flat(const std::string& var,
                             const FlatVisitor& fn) const = 0;

  /// Gather `var` at arbitrary global flat indices: out[i] = var[idx[i]].
  /// `out.size()` must equal `idx.size()`. Throws for unknown variables.
  virtual void gather(const std::string& var,
                      std::span<const std::size_t> idx,
                      std::span<double> out) const = 0;

  /// Allocating convenience wrapper around gather().
  [[nodiscard]] std::vector<double> gather(
      const std::string& var, std::span<const std::size_t> idx) const {
    std::vector<double> out(idx.size());
    gather(var, idx, std::span<double>(out));
    return out;
  }
};

/// Zero-copy adapter presenting an in-memory Snapshot as a FieldSource.
/// The snapshot must outlive the source.
class SnapshotSource final : public FieldSource {
 public:
  explicit SnapshotSource(const Snapshot& snap) noexcept : snap_(&snap) {}

  [[nodiscard]] const GridShape& shape() const noexcept override {
    return snap_->shape();
  }
  [[nodiscard]] std::vector<std::string> variables() const override {
    return snap_->names();
  }
  [[nodiscard]] bool has(const std::string& var) const override {
    return snap_->has(var);
  }
  void gather(const std::string& var, std::span<const std::size_t> idx,
              std::span<double> out) const override;
  using field::FieldSource::gather;
  [[nodiscard]] double time() const noexcept override {
    return snap_->time();
  }
  /// One callback over the whole in-memory span.
  void for_each_flat(const std::string& var,
                     const FlatVisitor& fn) const override {
    fn(snap_->get(var).data());
  }

  [[nodiscard]] const Snapshot& snapshot() const noexcept { return *snap_; }

 private:
  const Snapshot* snap_;
};

/// Exact [min, max] of one variable on one snapshot.
struct VarRange {
  double min = 0.0;
  double max = 0.0;
};

/// Bin count of the canonical per-snapshot coarse histogram summary
/// (SeriesSource::coarse_histogram, SKL3 index records). The contract
/// that makes index-resident and scanned counts interchangeable: counts
/// are accumulated by stats::Histogram over exactly
/// kCoarseHistogramBins equal-width bins spanning the snapshot's own
/// exact [min, max] (NaN-skipping, widened by +/-0.5 when degenerate,
/// all-zero when the range is non-finite). Integer counts are
/// batching-order-independent, so a writer-side whole-span pass and a
/// reader-side streamed scan produce bit-identical summaries for
/// lossless codecs.
inline constexpr std::size_t kCoarseHistogramBins = 64;

/// Read-only access to a time-ordered sequence of snapshots on a shared
/// grid — the temporal twin of FieldSource. Implementations: an in-memory
/// Dataset (DatasetSeriesSource, zero-copy) and an SKL3 series container
/// (store::SeriesReader, LRU-cached out-of-core). Temporal snapshot
/// selection (sampling::select_snapshots) and the staged case orchestrator
/// run over this interface, so the same code path serves in-RAM and
/// larger-than-RAM series.
class SeriesSource {
 public:
  virtual ~SeriesSource() = default;

  [[nodiscard]] virtual std::size_t num_snapshots() const = 0;

  /// Borrow a per-snapshot view. The reference stays valid until the next
  /// source() call on the same SeriesSource (sequential drivers) or until
  /// destruction — the in-memory and SKL3 implementations keep every view
  /// alive, but an implementation may recycle a single view.
  [[nodiscard]] virtual const FieldSource& source(std::size_t t) const = 0;

  [[nodiscard]] virtual double time(std::size_t t) const {
    return source(t).time();
  }

  /// Precomputed value range of `var` on snapshot `t`, when the source
  /// carries one (SKL3 index-resident summary blocks). nullopt means
  /// the caller must scan — consumers like temporal selection use the
  /// summary to skip a full range pass over the series, halving cold-store
  /// selection I/O. Ranges are exact for lossless codecs, so
  /// summary-driven and scan-driven statistics stay bit-identical.
  [[nodiscard]] virtual std::optional<VarRange> value_range(
      std::size_t t, const std::string& var) const {
    (void)t;
    (void)var;
    return std::nullopt;
  }

  /// Precomputed coarse histogram of `var` on snapshot `t` — counts of
  /// the canonical kCoarseHistogramBins-bin histogram over the snapshot's
  /// own exact range (see kCoarseHistogramBins for the exact contract) —
  /// when the source carries one (SKL3 index summary blocks). nullopt
  /// means the caller must scan. Together with value_range this lets
  /// temporal selection seed its novelty ranking with ZERO payload
  /// decodes on a sealed series; only the selected candidates are
  /// refined with an exact streamed pass.
  [[nodiscard]] virtual std::optional<std::vector<std::uint64_t>>
  coarse_histogram(std::size_t t, const std::string& var) const {
    (void)t;
    (void)var;
    return std::nullopt;
  }
};

/// Zero-copy adapter presenting an in-memory Dataset as a SeriesSource.
/// The dataset must outlive the source.
class DatasetSeriesSource final : public SeriesSource {
 public:
  explicit DatasetSeriesSource(const Dataset& data);

  [[nodiscard]] std::size_t num_snapshots() const override {
    return views_.size();
  }
  [[nodiscard]] const FieldSource& source(std::size_t t) const override {
    SICKLE_CHECK(t < views_.size());
    return views_[t];
  }

 private:
  std::vector<SnapshotSource> views_;
};

/// Extract the named variables inside cube `c` from any FieldSource — the
/// out-of-core twin of extract_cube(Snapshot&, ...), which delegates here.
[[nodiscard]] Hypercube extract_cube(const FieldSource& src,
                                     const CubeTiling& tiling,
                                     const CubeCoord& c,
                                     std::span<const std::string> vars);

}  // namespace sickle::field
