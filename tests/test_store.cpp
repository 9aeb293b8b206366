// Unit tests: chunked compressed store — codecs, chunk layout, and over
// one-snapshot SKL3 containers: writer/reader round trips, LRU cache
// behavior, and streaming-vs-in-memory sampling equivalence.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <thread>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sampling/pipeline.hpp"
#include "store/chunk_layout.hpp"
#include "store/codec.hpp"
#include "store/series_store.hpp"

namespace sickle::store {
namespace {

std::vector<double> smooth_values(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = std::sin(0.01 * static_cast<double>(i)) + 2.0;
  }
  return v;
}

std::vector<double> random_values(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.normal();
  return v;
}

TEST(Codec, RawRoundTripIsExact) {
  const auto codec = make_codec("raw");
  const auto values = random_values(257, 1);
  const auto block = codec->encode(values);
  EXPECT_EQ(block.size(), values.size() * sizeof(double));
  EXPECT_EQ(codec->decode(block, values.size()), values);
}

TEST(Codec, DeltaRoundTripIsExact) {
  const auto codec = make_codec("delta");
  for (const auto& values :
       {smooth_values(511), random_values(511, 2), std::vector<double>{},
        std::vector<double>(64, 3.25)}) {
    const auto block = codec->encode(values);
    EXPECT_EQ(codec->decode(block, values.size()), values);
  }
}

TEST(Codec, DeltaCompressesSmoothAndConstantData) {
  const auto codec = make_codec("delta");
  const auto smooth = smooth_values(4096);
  EXPECT_LT(codec->encode(smooth).size(), smooth.size() * sizeof(double));
  // A constant run costs one nibble per value after the first delta.
  const std::vector<double> constant(4096, 1.5);
  EXPECT_LT(codec->encode(constant).size(), constant.size());
}

TEST(Codec, QuantHonorsTolerance) {
  for (const double tol : {1e-1, 1e-3, 1e-6}) {
    const auto codec = make_codec("quant", tol);
    const auto values = random_values(1000, 3);
    const auto decoded =
        codec->decode(codec->encode(values), values.size());
    double err = 0.0;
    for (std::size_t i = 0; i < values.size(); ++i) {
      err = std::max(err, std::abs(values[i] - decoded[i]));
    }
    EXPECT_LE(err, tol);
  }
}

TEST(Codec, QuantSizeShrinksWithLooserTolerance) {
  const auto values = random_values(4096, 4);
  const auto tight = make_codec("quant", 1e-9)->encode(values);
  const auto loose = make_codec("quant", 1e-2)->encode(values);
  EXPECT_LT(loose.size(), tight.size());
  EXPECT_LT(loose.size(), values.size() * sizeof(double) / 2);
}

TEST(Codec, QuantConstantChunkIsTiny) {
  const auto codec = make_codec("quant", 1e-6);
  const std::vector<double> constant(512, 42.0);
  const auto block = codec->encode(constant);
  EXPECT_LT(block.size(), 32u);  // header only, zero-bit payload
  EXPECT_EQ(codec->decode(block, constant.size()), constant);
}

TEST(Codec, QuantFallsBackToRawOnExtremeRange) {
  // range/step overflows the 48-bit level cap -> embedded raw block,
  // which is exact, trivially within tolerance.
  const auto codec = make_codec("quant", 1e-15);
  std::vector<double> values = {0.0, 1e6, -1e6, 3.141592653589793};
  const auto decoded = codec->decode(codec->encode(values), values.size());
  EXPECT_EQ(decoded, values);
}

TEST(Codec, UnknownNameThrows) {
  EXPECT_THROW(make_codec("lz77"), RuntimeError);
  EXPECT_THROW(QuantCodec(0.0), CheckError);
#ifndef SICKLE_HAS_ZSTD
  // "zstd" is a registered name, but requesting it from a build without
  // zstd support must fail with a clear (typed) error, not decode garbage.
  EXPECT_THROW(make_codec("zstd"), RuntimeError);
#endif
}

TEST(ChunkLayout, PartialEdgeChunksCoverTheGrid) {
  const ChunkLayout layout({10, 6, 5}, {4, 4, 4});
  EXPECT_EQ(layout.chunks_x(), 3u);
  EXPECT_EQ(layout.chunks_y(), 2u);
  EXPECT_EQ(layout.chunks_z(), 2u);
  std::size_t covered = 0;
  for (std::size_t c = 0; c < layout.count(); ++c) {
    covered += layout.box(c).points();
  }
  EXPECT_EQ(covered, layout.grid().size());
}

TEST(ChunkLayout, PointMappingIsABijection) {
  const ChunkLayout layout({10, 6, 5}, {4, 4, 4});
  // (chunk_of, local_offset) must hit every slot of every chunk once.
  std::vector<std::vector<bool>> seen(layout.count());
  for (std::size_t c = 0; c < layout.count(); ++c) {
    seen[c].assign(layout.box(c).points(), false);
  }
  for (std::size_t flat = 0; flat < layout.grid().size(); ++flat) {
    const std::size_t c = layout.chunk_of(flat);
    const std::size_t off = layout.local_offset(flat);
    ASSERT_LT(c, layout.count());
    ASSERT_LT(off, seen[c].size());
    EXPECT_FALSE(seen[c][off]);
    seen[c][off] = true;
  }
}

TEST(ChunkLayout, OversizedChunkClampsToOneChunk) {
  const ChunkLayout layout({8, 8, 1}, {32, 32, 32});
  EXPECT_EQ(layout.count(), 1u);
  EXPECT_EQ(layout.box(0).points(), 64u);
}

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("sickle_store_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// Store `snap` as a one-snapshot SKL3 container.
  static SeriesWriteReport write_one(const field::Snapshot& snap,
                                     const std::string& p,
                                     const StoreOptions& opts = {}) {
    SeriesWriter writer(p, opts);
    writer.append(snap);
    return writer.close();
  }

  /// Snapshot whose grid is deliberately not divisible by the chunk shape.
  [[nodiscard]] static field::Snapshot make_snapshot() {
    field::Snapshot snap({10, 6, 5}, 1.25);
    Rng rng(7);
    for (const char* name : {"u", "v", "c"}) {
      auto& f = snap.add(name);
      std::size_t i = 0;
      for (auto& x : f.data()) {
        x = std::sin(0.05 * static_cast<double>(i++)) + 0.1 * rng.normal();
      }
    }
    return snap;
  }

  std::filesystem::path dir_;
};

TEST_F(StoreTest, LosslessRoundTripWithPartialChunks) {
  const auto snap = make_snapshot();
  for (const char* codec : {"raw", "delta", "gorilla"}) {
    StoreOptions opts;
    opts.chunk = {4, 4, 4};
    opts.codec = codec;
    const auto report = write_one(snap, path("s.skl3"), opts);
    EXPECT_EQ(report.chunks, 3u * 12u);
    EXPECT_EQ(report.raw_bytes, snap.bytes());
    EXPECT_EQ(report.file_bytes,
              std::filesystem::file_size(path("s.skl3")));

    const SeriesReader reader(path("s.skl3"));
    EXPECT_EQ(reader.num_snapshots(), 1u);
    EXPECT_EQ(reader.shape(), snap.shape());
    EXPECT_DOUBLE_EQ(reader.time(0), 1.25);
    EXPECT_EQ(reader.variables(), snap.names());
    EXPECT_EQ(reader.codec_name(), codec);
    const auto loaded = reader.load_snapshot(0);
    for (const auto& name : snap.names()) {
      const auto a = snap.get(name).data();
      const auto b = loaded.get(name).data();
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_DOUBLE_EQ(a[i], b[i]) << name << "[" << i << "]";
      }
    }
  }
}

TEST_F(StoreTest, QuantRoundTripWithinTolerance) {
  const auto snap = make_snapshot();
  StoreOptions opts;
  opts.chunk = {4, 4, 4};
  opts.codec = "quant";
  opts.tolerance = 1e-4;
  const auto report = write_one(snap, path("q.skl3"), opts);
  EXPECT_LT(report.file_bytes, report.raw_bytes);

  const auto loaded = SeriesReader(path("q.skl3")).load_snapshot(0);
  for (const auto& name : snap.names()) {
    const auto a = snap.get(name).data();
    const auto b = loaded.get(name).data();
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_NEAR(a[i], b[i], 1e-4);
    }
  }
}

TEST_F(StoreTest, GatherMatchesSnapshotValues) {
  const auto snap = make_snapshot();
  StoreOptions opts;
  opts.chunk = {4, 4, 4};
  write_one(snap, path("g.skl3"), opts);
  const SeriesReader reader(path("g.skl3"));
  const field::FieldSource& src = reader.source(0);

  Rng rng(11);
  std::vector<std::size_t> idx(200);
  for (auto& i : idx) i = rng.uniform_int(snap.shape().size());
  const auto got = src.gather("v", std::span<const std::size_t>(idx));
  const auto data = snap.get("v").data();
  for (std::size_t i = 0; i < idx.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i], data[idx[i]]);
  }
  EXPECT_THROW(src.gather("nope", std::span<const std::size_t>(idx)),
               CheckError);
}

TEST_F(StoreTest, CacheHitsEvictionsAndSharedOwnership) {
  const auto snap = make_snapshot();
  StoreOptions opts;
  opts.chunk = {4, 4, 4};
  write_one(snap, path("c.skl3"), opts);
  // Capacity of one 4^3 chunk: every switch to a new chunk evicts.
  const SeriesReader reader(path("c.skl3"), /*cache_bytes=*/64 * 8);

  const auto first = reader.chunk(0, 0, 0);
  auto stats = reader.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  (void)reader.chunk(0, 0, 0);
  stats = reader.cache_stats();
  EXPECT_EQ(stats.hits, 1u);

  (void)reader.chunk(0, 0, 1);  // exceeds capacity -> evicts chunk 0
  stats = reader.cache_stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_LE(stats.resident_bytes, 64u * 8u);
  // Evicted blocks stay alive for existing holders.
  EXPECT_EQ(first->size(), 64u);

  (void)reader.chunk(0, 0, 0);  // cold again after eviction
  stats = reader.cache_stats();
  EXPECT_EQ(stats.misses, 3u);
}

TEST_F(StoreTest, LruKeepsHotChunksResident) {
  const auto snap = make_snapshot();
  StoreOptions opts;
  opts.chunk = {4, 4, 4};
  write_one(snap, path("l.skl3"), opts);
  // Room for two full chunks.
  const SeriesReader reader(path("l.skl3"), /*cache_bytes=*/2 * 64 * 8);
  (void)reader.chunk(0, 0, 0);
  (void)reader.chunk(0, 0, 1);
  (void)reader.chunk(0, 0, 0);  // refresh 0 -> 1 is now LRU
  (void)reader.chunk(0, 0, 2);  // evicts 1, not 0
  (void)reader.chunk(0, 0, 0);
  EXPECT_EQ(reader.cache_stats().hits, 2u);
}

/// Trailing-index layout: the writer streams encoded waves under the
/// write budget instead of buffering the whole snapshot's blocks.
TEST_F(StoreTest, TrailingIndexWriterBoundsBufferedBytes) {
  field::Snapshot snap({24, 24, 24}, 0.5);
  Rng rng(11);
  for (const char* name : {"a", "b"}) {
    auto& f = snap.add(name);
    for (auto& x : f.data()) x = rng.normal();
  }
  StoreOptions opts;
  opts.chunk = {8, 8, 8};
  opts.codec = "raw";
  // Budget of two chunks: 54 blocks must flush in many waves.
  opts.write_budget_bytes = 2 * 8 * 8 * 8 * sizeof(double);
  const auto report = write_one(snap, path("wave.skl3"), opts);
  EXPECT_GT(report.peak_buffered_bytes, 0u);
  EXPECT_LT(report.peak_buffered_bytes, report.payload_bytes);
  // Raw codec: a wave's encoded bytes ~ its raw bytes (+ tiny framing).
  EXPECT_LE(report.peak_buffered_bytes, 2 * opts.write_budget_bytes);

  // And the container round-trips through the reader.
  const SeriesReader reader(path("wave.skl3"));
  const auto loaded = reader.load_snapshot(0);
  for (const char* name : {"a", "b"}) {
    const auto want = snap.get(name).data();
    const auto got = loaded.get(name).data();
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(want[i], got[i]) << name << "[" << i << "]";
    }
  }
}

/// One layout is read: a sealed file whose version field names any other
/// (the retired v1-v3 layouts, an unknown future one) is refused with a
/// typed error naming the file, before any of it is parsed.
TEST_F(StoreTest, UnsupportedVersionsAreRefused) {
  const auto snap = make_snapshot();
  StoreOptions opts;
  opts.chunk = {4, 4, 4};
  write_one(snap, path("ver.skl3"), opts);
  for (const std::uint32_t version : {1u, 2u, 3u, 5u}) {
    {
      std::fstream f(path("ver.skl3"),
                     std::ios::binary | std::ios::in | std::ios::out);
      f.seekp(4);  // the u32 right after the "SKL3" magic
      f.write(reinterpret_cast<const char*>(&version), sizeof(version));
    }
    try {
      SeriesReader reader(path("ver.skl3"));
      FAIL() << "SKL3 version " << version << " must be refused";
    } catch (const RuntimeError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("unsupported SKL3 version"), std::string::npos)
          << what;
      EXPECT_NE(what.find(path("ver.skl3")), std::string::npos) << what;
    }
  }
}

TEST_F(StoreTest, ErrorPaths) {
  EXPECT_THROW(SeriesReader(path("missing.skl3")), RuntimeError);
  {
    std::ofstream f(path("bad.skl3"), std::ios::binary);
    f << "NOTSKL3DATA";
  }
  EXPECT_THROW(SeriesReader(path("bad.skl3")), RuntimeError);

  const auto snap = make_snapshot();
  write_one(snap, path("trunc.skl3"));
  std::filesystem::resize_file(path("trunc.skl3"), 64);
  EXPECT_THROW(SeriesReader(path("trunc.skl3")), RuntimeError);
  EXPECT_THROW(SeriesWriter(path("no/such/dir/x.skl3")), RuntimeError);
}

/// The acceptance-criterion test: hypercube selection + point sampling
/// driven through a store reader must reproduce the in-memory pipeline.
TEST_F(StoreTest, StreamingPipelineMatchesInMemoryExactly) {
  field::Snapshot snap({16, 16, 16}, 0.0);
  Rng rng(3);
  for (const char* name : {"u", "v", "c"}) {
    auto& f = snap.add(name);
    std::size_t i = 0;
    for (auto& x : f.data()) {
      x = std::cos(0.02 * static_cast<double>(i++)) + 0.3 * rng.normal();
    }
  }
  sampling::PipelineConfig cfg;
  cfg.cube = {4, 4, 4};
  cfg.hypercube_method = "maxent";
  cfg.point_method = "maxent";
  cfg.num_hypercubes = 8;
  cfg.num_samples = 12;
  cfg.num_clusters = 4;
  cfg.input_vars = {"u", "v"};
  cfg.output_vars = {"u"};
  cfg.cluster_var = "c";
  const auto in_memory = run_pipeline(snap, cfg);

  StoreOptions opts;
  opts.chunk = {8, 8, 8};
  opts.codec = "delta";
  write_one(snap, path("stream.skl3"), opts);
  // A deliberately tiny cache forces continual decode during streaming.
  const SeriesReader reader(path("stream.skl3"), /*cache_bytes=*/16 << 10);
  const auto streamed =
      sampling::run_pipeline_streaming(reader.source(0), cfg);

  ASSERT_EQ(streamed.cubes.size(), in_memory.cubes.size());
  for (std::size_t i = 0; i < streamed.cubes.size(); ++i) {
    EXPECT_EQ(streamed.cubes[i].cube_id, in_memory.cubes[i].cube_id);
  }
  const auto a = in_memory.merged();
  const auto b = streamed.merged();
  EXPECT_EQ(a.indices, b.indices);
  EXPECT_EQ(a.features, b.features);
  EXPECT_GT(reader.cache_stats().evictions, 0u);
}

/// Concurrent-gather stress for the sharded cache: many threads hammer one
/// shared reader with random gathers while a deliberately tiny per-shard
/// budget forces constant eviction churn. Every value must still match the
/// source snapshot, and the sanitizer build (SICKLE_SANITIZE=ON) must stay
/// clean. Runs for explicit shard counts including 1 (single-shard must
/// also be safe, just slower).
TEST_F(StoreTest, ConcurrentGathersMatchSnapshotUnderEvictionChurn) {
  field::Snapshot snap({24, 24, 24}, 0.0);
  Rng fill(13);
  for (const char* name : {"u", "v"}) {
    auto& f = snap.add(name);
    for (auto& x : f.data()) x = fill.normal();
  }
  StoreOptions opts;
  opts.chunk = {8, 8, 8};
  opts.codec = "delta";
  write_one(snap, path("mt.skl3"), opts);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
    // ~3 chunks of budget across all shards: nearly every gather evicts.
    const SeriesReader reader(path("mt.skl3"),
                              /*cache_bytes=*/3 * 512 * sizeof(double),
                              shards);
    EXPECT_EQ(reader.shard_count(), shards);
    const field::FieldSource& src = reader.source(0);
    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kRounds = 64;
    std::vector<std::string> failures(kThreads);
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        Rng rng(1000 + t);
        std::vector<std::size_t> idx(128);
        for (std::size_t round = 0; round < kRounds; ++round) {
          const char* var = (round + t) % 2 == 0 ? "u" : "v";
          for (auto& i : idx) i = rng.uniform_int(snap.shape().size());
          const auto got = src.gather(var, std::span<const std::size_t>(idx));
          const auto& data = snap.get(var).data();
          for (std::size_t i = 0; i < idx.size(); ++i) {
            if (got[i] != data[idx[i]]) {
              failures[t] = "thread " + std::to_string(t) + " round " +
                            std::to_string(round) + ": mismatch at index " +
                            std::to_string(idx[i]);
              return;
            }
          }
        }
      });
    }
    for (auto& w : workers) w.join();
    for (const auto& f : failures) EXPECT_EQ(f, "");
    const auto stats = reader.cache_stats();
    EXPECT_GT(stats.misses, 0u);
    EXPECT_GT(stats.evictions, 0u);
  }
}

/// The byte budget is strict even when the shard count is absurd relative
/// to it: shards never retain a chunk their slice cannot hold, so resident
/// bytes stay bounded by cache_bytes rather than shards * chunk_bytes.
TEST_F(StoreTest, ShardedCacheNeverExceedsByteBudget) {
  const auto snap = make_snapshot();
  StoreOptions opts;
  opts.chunk = {4, 4, 4};
  write_one(snap, path("b.skl3"), opts);
  // One 4^3 chunk of budget split across 8 shards.
  const SeriesReader reader(path("b.skl3"), /*cache_bytes=*/64 * 8,
                            /*shards=*/8);
  for (std::size_t f = 0; f < reader.num_fields(); ++f) {
    for (std::size_t c = 0; c < reader.layout().count(); ++c) {
      const auto values = reader.chunk(0, f, c);
      EXPECT_EQ(values->size(), reader.layout().box(c).points());
      EXPECT_LE(reader.cache_stats().resident_bytes, 64u * 8u);
    }
  }
}

/// The acceptance bit-exactness test: `threads: N` streaming over ONE
/// shared sharded reader must reproduce the serial in-memory pipeline
/// bit-for-bit for lossless codecs, for both the memory and store paths.
TEST_F(StoreTest, ParallelStreamingIsBitExactWithSerialInMemory) {
  field::Snapshot snap({16, 16, 16}, 0.0);
  Rng rng(17);
  for (const char* name : {"u", "v", "c"}) {
    auto& f = snap.add(name);
    std::size_t i = 0;
    for (auto& x : f.data()) {
      x = std::sin(0.03 * static_cast<double>(i++)) + 0.2 * rng.normal();
    }
  }
  sampling::PipelineConfig cfg;
  cfg.cube = {4, 4, 4};
  cfg.hypercube_method = "maxent";
  cfg.point_method = "maxent";
  cfg.num_hypercubes = 8;
  cfg.num_samples = 12;
  cfg.num_clusters = 4;
  cfg.input_vars = {"u", "v"};
  cfg.output_vars = {"u"};
  cfg.cluster_var = "c";
  cfg.threads = 1;
  const auto serial = run_pipeline(snap, cfg).merged();

  for (const char* codec : {"raw", "delta", "gorilla"}) {
    StoreOptions opts;
    opts.chunk = {8, 8, 8};
    opts.codec = codec;
    const std::string p = path(std::string("mt_") + codec + ".skl3");
    write_one(snap, p, opts);
    // Small cache + explicit shards: workers contend and evict while they
    // stream.
    const SeriesReader reader(p, /*cache_bytes=*/16 << 10, /*shards=*/4);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      cfg.threads = threads;
      const auto streamed =
          sampling::run_pipeline_streaming(reader.source(0), cfg).merged();
      EXPECT_EQ(streamed.indices, serial.indices)
          << codec << " threads=" << threads;
      EXPECT_EQ(streamed.features, serial.features)
          << codec << " threads=" << threads;
    }
    // The memory backend with threads must agree too.
    cfg.threads = 4;
    const auto pooled_memory = run_pipeline(snap, cfg).merged();
    EXPECT_EQ(pooled_memory.indices, serial.indices);
    EXPECT_EQ(pooled_memory.features, serial.features);
    cfg.threads = 1;
  }
}

/// Lossy stores keep the selection (data-independent methods) and bound
/// the feature error by the codec tolerance.
TEST_F(StoreTest, StreamingOverQuantStoreStaysWithinTolerance) {
  field::Snapshot snap({16, 16, 16}, 0.0);
  Rng rng(5);
  for (const char* name : {"u", "c"}) {
    auto& f = snap.add(name);
    for (auto& x : f.data()) x = rng.normal();
  }
  sampling::PipelineConfig cfg;
  cfg.cube = {4, 4, 4};
  cfg.hypercube_method = "random";
  cfg.point_method = "random";
  cfg.num_hypercubes = 6;
  cfg.num_samples = 9;
  cfg.input_vars = {"u"};
  cfg.cluster_var = "c";
  const auto in_memory = run_pipeline(snap, cfg).merged();

  StoreOptions opts;
  opts.codec = "quant";
  opts.tolerance = 1e-3;
  write_one(snap, path("quant.skl3"), opts);
  const SeriesReader reader(path("quant.skl3"));
  const auto streamed =
      sampling::run_pipeline_streaming(reader.source(0), cfg).merged();
  ASSERT_EQ(streamed.indices, in_memory.indices);
  ASSERT_EQ(streamed.features.size(), in_memory.features.size());
  for (std::size_t i = 0; i < streamed.features.size(); ++i) {
    EXPECT_NEAR(streamed.features[i], in_memory.features[i], 1e-3);
  }
}

}  // namespace
}  // namespace sickle::store
