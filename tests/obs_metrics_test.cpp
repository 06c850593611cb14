// The telemetry layer's own test suite (obs/): counter slots and latency
// histograms as units, then the metrics coherence contract end-to-end —
// counter exactness against an oracle at quiescent points on every engine
// topology, mid-run reads, the exporter round-trip property, stream-sink
// drop accounting, the background sampler, and concurrent metrics() reads
// while another thread folds (the test the TSan CI job exists for).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_export.hpp"
#include "obs/sampler.hpp"
#include "runtime/engine_builder.hpp"
#include "runtime/stream_sink.hpp"
#include "runtime_test_util.hpp"
#include "trace/replay.hpp"

namespace perfq::runtime {
namespace {

// ---- units ------------------------------------------------------------------

TEST(RelaxedU64, CountsExactly) {
  obs::RelaxedU64 c;
  EXPECT_EQ(static_cast<std::uint64_t>(c), 0u);
  ++c;
  c += 41;
  EXPECT_EQ(static_cast<std::uint64_t>(c), 42u);
  c.sub(2);
  EXPECT_EQ(static_cast<std::uint64_t>(c), 40u);
  c.set_max(100);
  c.set_max(7);  // no effect: below the current value
  EXPECT_EQ(static_cast<std::uint64_t>(c), 100u);

  // Copy semantics: a snapshot, not a shared slot.
  obs::RelaxedU64 copy = c;
  ++c;
  EXPECT_EQ(static_cast<std::uint64_t>(copy), 100u);
  EXPECT_EQ(static_cast<std::uint64_t>(c), 101u);
}

TEST(LatencyHistogram, BucketsByLog2AndSnapshotsExactCounts) {
  obs::LatencyHistogram h;
  h.record(0);     // bucket 0
  h.record(1);     // bit_width(1) = 1
  h.record(1000);  // bit_width(1000) = 10
  h.record(1000);
  const obs::HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_EQ(snap.sum_ns, 2001u);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[10], 2u);
  EXPECT_DOUBLE_EQ(snap.mean_ns(), 2001.0 / 4.0);

  // Quantiles are bucket-interpolated: the p99 of this sample must land in
  // the 1000 ns bucket, i.e. within [2^9, 2^10).
  const double p99 = snap.quantile_ns(0.99);
  EXPECT_GE(p99, 512.0);
  EXPECT_LE(p99, 1024.0);
  // And quantiles are monotone in q.
  EXPECT_LE(snap.quantile_ns(0.25), snap.quantile_ns(0.75));
}

TEST(LatencyHistogram, EmptySnapshotIsZero) {
  const obs::HistogramSnapshot snap = obs::LatencyHistogram{}.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.mean_ns(), 0.0);
  EXPECT_DOUBLE_EQ(snap.quantile_ns(0.5), 0.0);
}

TEST(CommonHistogram, AddCountMatchesRepeatedAdd) {
  // The bulk-load path HistogramSnapshot::quantile_ns() depends on must be
  // indistinguishable from n individual add() calls.
  Histogram bulk(0.0, 48.0, 48);
  Histogram scalar(0.0, 48.0, 48);
  bulk.add_count(3.5, 7);
  bulk.add_count(-1.0, 2);  // underflow
  bulk.add_count(99.0, 3);  // overflow
  for (int i = 0; i < 7; ++i) scalar.add(3.5);
  for (int i = 0; i < 2; ++i) scalar.add(-1.0);
  for (int i = 0; i < 3; ++i) scalar.add(99.0);
  EXPECT_EQ(bulk.total(), scalar.total());
  EXPECT_EQ(bulk.underflow(), scalar.underflow());
  EXPECT_EQ(bulk.overflow(), scalar.overflow());
  for (std::size_t b = 0; b < bulk.buckets(); ++b) {
    EXPECT_EQ(bulk.bucket(b), scalar.bucket(b)) << "bucket " << b;
  }
  EXPECT_DOUBLE_EQ(bulk.quantile(0.5), scalar.quantile(0.5));
}

// ---- counter exactness against the oracle -----------------------------------

struct Topology {
  const char* name;
  std::size_t shards;       // 0 = serial
  std::size_t dispatchers;  // ignored when serial
};
const Topology kTopologies[] = {
    {"serial", 0, 0},       {"d1s1", 1, 1}, {"d1s4", 4, 1},
    {"d2s1", 1, 2},         {"d2s4", 4, 2},
};

std::unique_ptr<Engine> build_count_engine(const Topology& topo,
                                           kv::CacheGeometry geometry) {
  EngineBuilder builder(compiler::compile_source("SELECT COUNT GROUPBY 5tuple"));
  builder.geometry(geometry);
  if (topo.shards > 0) builder.sharded(topo.shards).dispatchers(topo.dispatchers);
  return builder.build();
}

TEST(MetricsExactness, CountersMatchOracleAtQuiescentPoints) {
  const auto records = test_workload();
  for (const Topology& topo : kTopologies) {
    SCOPED_TRACE(topo.name);
    // 128 buckets — divisible by every shard count used here.
    auto engine = build_count_engine(
        topo, kv::CacheGeometry::set_associative(1024, 8));
    const std::span<const PacketRecord> span(records);
    std::uint64_t batches = 0;
    for (std::size_t base = 0; base < span.size(); base += 512) {
      engine->process_batch(span.subspan(base, std::min<std::size_t>(
                                                   512, span.size() - base)));
      ++batches;
    }
    engine->finish(11_s);

    const EngineMetrics m = engine->metrics();
    EXPECT_EQ(m.engine, topo.shards > 0 ? "sharded" : "serial");
    EXPECT_EQ(m.records, records.size());
    EXPECT_EQ(m.batches, batches);
    EXPECT_FALSE(m.faulted);
    ASSERT_EQ(m.queries.size(), 1u);
    const StoreStats& q = m.queries[0];
    // Every record hit the one store; every packet either hit or initialized.
    EXPECT_EQ(static_cast<std::uint64_t>(q.cache.packets), records.size());
    EXPECT_EQ(static_cast<std::uint64_t>(q.cache.hits) +
                  static_cast<std::uint64_t>(q.cache.initializations),
              static_cast<std::uint64_t>(q.cache.packets));
    // metrics() and store_stats() are the same surface.
    const auto stats = engine->store_stats();
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_EQ(static_cast<std::uint64_t>(stats[0].cache.packets),
              static_cast<std::uint64_t>(q.cache.packets));
    EXPECT_EQ(stats[0].keys, q.keys);

    if (topo.shards > 0) {
      // After finish() the pipeline is drained: eviction flow balances.
      ASSERT_EQ(m.shards.size(), topo.shards);
      for (const ShardMetrics& s : m.shards) {
        EXPECT_EQ(s.evictions_pushed, s.evictions_absorbed)
            << "shard " << s.shard;
        // finish() joined the pipeline: an orderly exit latches the flags
        // (only `faulted` distinguishes a crash from this).
        EXPECT_TRUE(s.worker_exited);
      }
      EXPECT_TRUE(m.merge_exited);
      EXPECT_EQ(m.rings.size(), topo.dispatchers * topo.shards);
    } else {
      EXPECT_TRUE(m.shards.empty());
      EXPECT_TRUE(m.rings.empty());
    }
  }
}

TEST(MetricsExactness, SmallGeometryShowsEvictionPressure) {
  const auto records = test_workload();
  for (const Topology& topo : kTopologies) {
    SCOPED_TRACE(topo.name);
    // 16 buckets, 64 pairs: 400 flows thrash it, so evictions MUST show up.
    auto engine =
        build_count_engine(topo, kv::CacheGeometry::set_associative(64, 4));
    engine->process_batch(records);
    engine->finish(11_s);
    const EngineMetrics m = engine->metrics();
    ASSERT_EQ(m.queries.size(), 1u);
    EXPECT_GT(static_cast<std::uint64_t>(m.queries[0].cache.evictions), 0u);
    if (topo.shards > 0) {
      std::uint64_t pushed = 0;
      for (const ShardMetrics& s : m.shards) pushed += s.evictions_pushed;
      EXPECT_GT(pushed, 0u);
    }
  }
}

TEST(MetricsExactness, MidRunReadsAreMonotoneAndQuiescentExact) {
  const auto records = test_workload();
  const std::span<const PacketRecord> span(records);
  auto engine = build_count_engine(kTopologies[0],  // serial
                                   kv::CacheGeometry::set_associative(1024, 8));
  engine->process_batch(span.first(span.size() / 2));
  const EngineMetrics m1 = engine->metrics();
  // Serial engine between batches IS a quiescent point: exact invariants.
  EXPECT_EQ(m1.records, span.size() / 2);
  EXPECT_EQ(static_cast<std::uint64_t>(m1.queries[0].cache.hits) +
                static_cast<std::uint64_t>(m1.queries[0].cache.initializations),
            m1.records);
  engine->process_batch(span.subspan(span.size() / 2));
  const EngineMetrics m2 = engine->metrics();
  EXPECT_EQ(m2.records, span.size());
  EXPECT_GE(m2.batches, m1.batches);
  engine->finish(11_s);
}

TEST(MetricsExactness, OnePullPerMidRunExportOnEveryEngine) {
  // snapshots / snapshot_ns count mid-run exports — snapshot() is one, a
  // bare export_store() is one, a post-finish export is none — identically
  // on every engine.
  constexpr std::uint64_t kSnapshots = 3;
  constexpr std::uint64_t kExports = 2;
  const auto records = test_workload();
  const std::span<const PacketRecord> span(records);
  for (const Topology& topo : kTopologies) {
    SCOPED_TRACE(topo.name);
    auto engine = build_count_engine(
        topo, kv::CacheGeometry::set_associative(64, 4));
    engine->process_batch(span.first(span.size() / 2));
    for (std::uint64_t i = 0; i < kSnapshots; ++i) {
      (void)engine->snapshot("result", 5_s);
    }
    engine->process_batch(span.subspan(span.size() / 2));
    for (std::uint64_t i = 0; i < kExports; ++i) {
      (void)engine->export_store("result", 10_s);
    }
    engine->finish(11_s);
    (void)engine->export_store("result", 11_s);

    const EngineMetrics m = engine->metrics();
    EXPECT_EQ(m.snapshots, kSnapshots + kExports);
    if (obs::kTelemetryEnabled) {
      EXPECT_EQ(m.snapshot_ns.count, kSnapshots + kExports);
    }
  }
}

// ---- ingest / replay accounting ---------------------------------------------

TEST(MetricsIngest, RecordIngestAccumulatesAcrossFeeds) {
  auto engine = build_count_engine(kTopologies[0],
                                   kv::CacheGeometry::set_associative(1024, 8));
  trace::IngestStats a;
  a.parsed = 10;
  a.truncated = 2;
  trace::IngestStats b;
  b.parsed = 5;
  b.bad_length = 1;
  engine->record_ingest(a);
  engine->record_ingest(b);
  const EngineMetrics m = engine->metrics();
  EXPECT_EQ(static_cast<std::uint64_t>(m.ingest.parsed), 15u);
  EXPECT_EQ(static_cast<std::uint64_t>(m.ingest.truncated), 2u);
  EXPECT_EQ(static_cast<std::uint64_t>(m.ingest.bad_length), 1u);
  EXPECT_EQ(m.ingest.dropped(), 3u);
}

TEST(MetricsIngest, ReplayDriverRecordsItself) {
  const auto records = test_workload();
  auto engine = build_count_engine(kTopologies[0],
                                   kv::CacheGeometry::set_associative(1024, 8));
  const auto stats = trace::replay_into(*engine, records, /*batch=*/512);
  const EngineMetrics m = engine->metrics();
  EXPECT_EQ(m.replay_records, stats.records);
  EXPECT_EQ(m.replay_records, records.size());
  EXPECT_GT(m.replay_nanos, 0u);
  engine->finish(11_s);
}

// ---- stream sink drop accounting --------------------------------------------

TEST(MetricsStreams, RingSinkDropsAreExact) {
  const char* source = R"(
def counter (cnt, (pkt_len)):
    cnt = cnt + 1

S = SELECT srcip, pkt_len FROM T WHERE pkt_len > 300
R1 = SELECT 5tuple, counter GROUPBY 5tuple
)";
  const auto records = test_workload();
  std::uint64_t expected_rows = 0;
  for (const auto& rec : records) {
    if (rec.pkt.pkt_len > 300) ++expected_rows;
  }
  ASSERT_GT(expected_rows, 4u) << "workload too small";

  auto ring = std::make_shared<RingStreamSink>(/*capacity=*/4);
  auto engine = EngineBuilder(compiler::compile_source(source))
                    .geometry(kv::CacheGeometry::set_associative(1024, 8))
                    .stream_sink("S", ring)
                    .build();
  engine->process_batch(records);
  engine->finish(11_s);

  const EngineMetrics m = engine->metrics();
  ASSERT_EQ(m.streams.size(), 1u);
  EXPECT_EQ(m.streams[0].query, "S");
  EXPECT_EQ(m.streams[0].rows_delivered, expected_rows);
  // Drop-oldest ring of capacity 4: everything but the tail is dropped.
  EXPECT_EQ(m.streams[0].rows_dropped, expected_rows - 4);
  EXPECT_EQ(ring->rows_dropped(), expected_rows - 4);
}

TEST(MetricsStreams, CappedTableSinkReportsSaturation) {
  const char* source = R"(
def counter (cnt, (pkt_len)):
    cnt = cnt + 1

S = SELECT srcip, pkt_len FROM T
R1 = SELECT 5tuple, counter GROUPBY 5tuple
)";
  const auto records = test_workload();
  auto engine = EngineBuilder(compiler::compile_source(source))
                    .geometry(kv::CacheGeometry::set_associative(1024, 8))
                    .max_stream_rows(32)
                    .build();
  engine->process_batch(records);
  engine->finish(11_s);
  const EngineMetrics m = engine->metrics();
  ASSERT_EQ(m.streams.size(), 1u);
  EXPECT_TRUE(m.streams[0].saturated);
  EXPECT_GT(m.streams[0].rows_dropped, 0u);
  // Delivered counts offers, dropped counts the rejected suffix.
  EXPECT_EQ(m.streams[0].rows_delivered,
            32u + m.streams[0].rows_dropped);
}

// ---- exporter round-trip ----------------------------------------------------

TEST(MetricsExport, EveryVisitedMetricAppearsInBothExporters) {
  const auto records = test_workload();
  // Sharded with two dispatchers and a stream: exercises every metric family.
  const char* source = R"(
def counter (cnt, (pkt_len)):
    cnt = cnt + 1

S = SELECT srcip, pkt_len FROM T WHERE pkt_len > 300
R1 = SELECT 5tuple, counter GROUPBY 5tuple
)";
  auto engine = EngineBuilder(compiler::compile_source(source))
                    .geometry(kv::CacheGeometry::set_associative(1024, 8))
                    .sharded(4)
                    .dispatchers(2)
                    .build();
  engine->process_batch(records);
  engine->finish(11_s);
  const EngineMetrics m = engine->metrics();

  std::vector<std::string> names;
  obs::visit_metrics(m, [&](std::string_view name, const obs::MetricLabels&,
                            double) { names.emplace_back(name); });
  ASSERT_FALSE(names.empty());

  const std::string json = obs::metrics_to_json(m);
  const std::string prom = obs::metrics_to_prometheus(m);
  for (const std::string& name : names) {
    EXPECT_NE(json.find("\"" + name + "\""), std::string::npos)
        << "metric " << name << " missing from JSON export";
    EXPECT_NE(prom.find("perfq_" + name), std::string::npos)
        << "metric " << name << " missing from Prometheus export";
  }
  // The human renderers never throw and are non-empty.
  EXPECT_FALSE(obs::format_metrics(m).empty());
  EXPECT_FALSE(obs::format_pipeline(m).empty());
}

// ---- background sampler -----------------------------------------------------

TEST(MetricsSampler, CollectsABoundedMonotoneSeries) {
  const auto records = test_workload();
  auto engine =
      EngineBuilder(compiler::compile_source("SELECT COUNT GROUPBY 5tuple"))
          .geometry(kv::CacheGeometry::set_associative(1024, 8))
          .build();
  obs::MetricsSampler sampler(*engine, std::chrono::milliseconds(1),
                              /*capacity=*/8);
  const std::span<const PacketRecord> span(records);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(60);
  while (std::chrono::steady_clock::now() < deadline) {
    engine->process_batch(span.first(256));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const auto series = sampler.series();
  ASSERT_FALSE(series.empty());
  EXPECT_LE(series.size(), 8u);  // bounded: oldest samples dropped
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_GT(series[i].elapsed_ns, series[i - 1].elapsed_ns);
    EXPECT_GE(series[i].metrics.records, series[i - 1].metrics.records);
  }
  engine->finish(11_s);
  // The sampler only reads: the driver surface is unperturbed.
  EXPECT_EQ(engine->metrics().records, engine->records_processed());
}

TEST(MetricsSampler, RejectsBadConfig) {
  auto engine =
      EngineBuilder(compiler::compile_source("SELECT COUNT GROUPBY srcip"))
          .build();
  EXPECT_THROW(obs::MetricsSampler(*engine, std::chrono::milliseconds(0)),
               ConfigError);
  EXPECT_THROW(obs::MetricsSampler(*engine, std::chrono::milliseconds(1),
                                   /*capacity=*/0),
               ConfigError);
}

// ---- concurrent reads (the TSan test) ---------------------------------------

TEST(MetricsConcurrency, ReadableWhileShardedEngineFolds) {
  const auto records = test_workload();
  auto engine =
      EngineBuilder(compiler::compile_source("SELECT COUNT GROUPBY 5tuple"))
          .geometry(kv::CacheGeometry::set_associative(64, 4))  // heavy evictions
          .sharded(4)
          .dispatchers(2)
          .build();

  std::atomic<bool> done{false};
  std::uint64_t last_records = 0;
  bool monotone = true;
  std::thread reader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const EngineMetrics m = engine->metrics();
      if (m.records < last_records) monotone = false;
      last_records = m.records;
      // Exercise the exporters concurrently too — they only read the copy,
      // but building the copy walks every live slot.
      (void)obs::metrics_to_prometheus(m);
    }
  });
  trace::replay_into(*engine, records, /*batch=*/512, /*repeats=*/4);
  engine->finish(41_s);
  done.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_TRUE(monotone) << "metrics().records went backwards";
  const EngineMetrics m = engine->metrics();
  EXPECT_EQ(m.records, records.size() * 4);
  EXPECT_GE(records.size() * 4, last_records);
}

}  // namespace
}  // namespace perfq::runtime
