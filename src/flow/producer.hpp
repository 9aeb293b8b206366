/// @file producer.hpp
/// @brief Snapshot-at-a-time producer interface for out-of-core ingest.
///
/// The flow generators originally returned a fully materialized
/// field::Dataset, which caps the largest curatable case at generation-side
/// RAM even though selection/sampling already stream. SnapshotProducer is
/// the slab-at-a-time contract that closes that gap: a producer yields one
/// field::Snapshot per next() call, so the case orchestrator can run
/// simulate -> encode -> SeriesWriter::append -> drop and never hold more
/// than one snapshot, no matter how long the series. Every generator-backed
/// producer yields snapshots bit-identical to the batch generate_* function
/// it mirrors (test-asserted), so streaming and materialized ingest produce
/// identical stores, sample sets, and training tensors.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "field/field.hpp"

namespace sickle::flow {

/// Thrown by SnapshotProducer::reset() when a generator genuinely cannot
/// rewind (e.g. a producer draining an external one-shot stream). Every
/// in-tree generator CAN rewind — their state is a seed plus counters —
/// so this exists as the documented escape hatch of the reset() contract,
/// not as a common case.
class CloneError : public RuntimeError {
 public:
  explicit CloneError(const std::string& what) : RuntimeError(what) {}
};

/// Pull-based snapshot generator: one field snapshot per next() call.
///
/// Producers are stateful (simulation state, RNG streams advance with
/// each snapshot); call next() until it returns nullopt. num_snapshots()
/// is known up front so consumers can size indexes and progress reporting
/// without buffering the series.
///
/// The reset() contract: after reset(), the producer yields the exact
/// same snapshot sequence again from the start — the session layer uses
/// it so a rejected or cancelled submission does not leave a
/// half-consumed producer behind. Producers that cannot rewind throw
/// flow::CloneError instead (the base-class default); all in-tree
/// generators override it with a real rewind.
class SnapshotProducer {
 public:
  virtual ~SnapshotProducer() = default;

  /// Total snapshots this producer will yield.
  [[nodiscard]] virtual std::size_t num_snapshots() const = 0;

  /// Simulate and return the next snapshot; nullopt after the last.
  [[nodiscard]] virtual std::optional<field::Snapshot> next() = 0;

  /// Rewind to the initial state so next() replays the identical
  /// sequence. Throws flow::CloneError when this generator cannot rewind.
  virtual void reset() {
    throw CloneError("this SnapshotProducer cannot rewind");
  }

  /// Per-snapshot scalar targets (e.g. OF2D drag) accumulated for the
  /// snapshots produced so far; empty for field-to-field problems.
  [[nodiscard]] virtual std::vector<double> scalar_target() const {
    return {};
  }

  /// The whole series still to be produced, when it already sits in RAM
  /// (a DatasetProducer that has not advanced), so a consumer that needs
  /// every snapshot at once can borrow it instead of copying; nullptr for
  /// generators.
  [[nodiscard]] virtual const field::Dataset* resident() const {
    return nullptr;
  }
};

/// Drain `producer` into an in-memory Dataset named `name` — the
/// compatibility bridge for the batch generate_* functions.
[[nodiscard]] field::Dataset materialize(SnapshotProducer& producer,
                                         std::string name);

/// Replay an existing in-memory Dataset one snapshot at a time (copies) —
/// how run_case feeds a DatasetBundle to the series backend, and glue for
/// tests.
class DatasetProducer final : public SnapshotProducer {
 public:
  /// The dataset must outlive the producer.
  explicit DatasetProducer(const field::Dataset& data) noexcept
      : data_(&data) {}

  [[nodiscard]] std::size_t num_snapshots() const override {
    return data_->num_snapshots();
  }

  [[nodiscard]] std::optional<field::Snapshot> next() override {
    if (next_ >= data_->num_snapshots()) return std::nullopt;
    return data_->snapshot(next_++);
  }

  void reset() override { next_ = 0; }

  [[nodiscard]] const field::Dataset* resident() const override {
    return next_ == 0 ? data_ : nullptr;
  }

 private:
  const field::Dataset* data_;
  std::size_t next_ = 0;
};

}  // namespace sickle::flow
