// Mid-run snapshot() — the paper's §3.2 application pull — property-tested
// for exactness at record boundaries.
//
// The contract (engine_api.hpp): a snapshot taken after feeding a record
// prefix equals, bit for bit, the table a fresh engine fed the same prefix
// would produce from finish() at the same timestamp — live cache contents
// merged over the backing store with the exact-merge machinery. The sharded
// engine must agree with the serial engine at every boundary (its in-band
// snapshot marker + eviction drain barrier reconstruct the same state from
// D×N rings, per-shard cache slices and the concurrent backing store), and
// taking snapshots must not perturb any engine's final results. snapshot()
// is export_store() materialized, so the export is held to the same oracle —
// rendered directly and through a one-source federation — and, after
// finish(), to the final table.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "federation/collector.hpp"
#include "runtime/collection.hpp"
#include "runtime/engine.hpp"
#include "runtime/engine_builder.hpp"
#include "runtime_test_util.hpp"
#include "trace/flow_session.hpp"

namespace perfq::runtime {
namespace {

std::vector<PacketRecord> workload() { return test_workload(); }

/// Fig. 2 fold corpus: const-A, varying-A, h=1 linear, and non-linear.
struct CorpusEntry {
  const char* name;
  const char* source;
  bool linear;
};
const CorpusEntry kCorpus[] = {
    {"counter", R"(
def counter (cnt, (pkt_len)):
    cnt = cnt + 1

R1 = SELECT 5tuple, counter GROUPBY 5tuple
)",
     true},
    {"ewma", R"(
def ewma (lat_est, (tin, tout)):
    lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)

R1 = SELECT 5tuple, ewma GROUPBY 5tuple
)",
     true},
    {"outofseq", R"(
def outofseq ((lastseq, oos_count), (tcpseq, payload_len)):
    if lastseq + 1 != tcpseq: oos_count = oos_count + 1
    lastseq = tcpseq + payload_len

R1 = SELECT 5tuple, outofseq GROUPBY 5tuple
)",
     true},
    {"gear", R"(
def gear (acc, (pkt_len)):
    if pkt_len > 500:
        acc = 2 * acc
    else:
        acc = acc + 1

R1 = SELECT 5tuple, gear GROUPBY 5tuple
)",
     true},
    {"nonmt", R"(
def nonmt ((maxseq, nm_count), (tcpseq)):
    if maxseq > tcpseq: nm_count = nm_count + 1
    maxseq = max(maxseq, tcpseq)

R1 = SELECT 5tuple, nonmt GROUPBY 5tuple
)",
     false},
};
const std::map<std::string, double> kParams{{"alpha", 0.125}};

/// Small cache (64 x 8) so evictions/merges hit on every prefix; divides
/// into 1 and 4 shards.
kv::CacheGeometry small_geometry() {
  return kv::CacheGeometry::set_associative(64, 8);
}

EngineBuilder builder_for(const CorpusEntry& entry, Nanos refresh) {
  EngineBuilder builder(compiler::compile_source(entry.source, kParams));
  builder.geometry(small_geometry()).refresh(refresh);
  return builder;
}

const compiler::SwitchQueryPlan& r1_plan(const Engine& engine) {
  const compiler::CompiledProgram& program = engine.program();
  return *program.plan_for(program.analysis.query_index("R1"));
}

/// R1's table rendered straight from one export.
ResultTable materialize_r1(const Engine& engine, const kv::StoreExport& ex) {
  return materialize_switch_table(engine.program(), r1_plan(engine), ex);
}

/// R1's table from a federation of exactly one source: the export.
ResultTable collect_r1(const Engine& engine, const kv::StoreExport& ex) {
  federation::Collector collector(engine.program(), r1_plan(engine));
  collector.add(0, ex);
  return collector.materialize().table;
}

/// The property: at K record boundaries, every engine's snapshot — and the
/// export it materializes — equals the fresh-engine-finish oracle over the
/// same prefix, bit for bit.
void run_snapshot_property(const CorpusEntry& entry, Nanos refresh) {
  const auto records = workload();
  const std::span<const PacketRecord> span(records);
  // K = 4 uneven boundaries (plus the trivial 0 boundary) to stress partial
  // epochs, plus the full-trace boundary.
  const std::size_t boundaries[] = {0, 997, span.size() / 3,
                                    span.size() / 2 + 13, span.size()};

  struct UnderTest {
    std::string label;
    std::unique_ptr<Engine> engine;
  };
  std::vector<UnderTest> engines;
  engines.push_back({"serial", builder_for(entry, refresh).build()});
  for (const std::size_t dispatchers : {1u, 2u}) {
    for (const std::size_t shards : {1u, 4u}) {
      EngineBuilder b = builder_for(entry, refresh);
      b.sharded(shards).dispatchers(dispatchers);
      engines.push_back({"D" + std::to_string(dispatchers) + "xS" +
                             std::to_string(shards),
                         b.build()});
    }
  }

  std::size_t fed = 0;
  for (const std::size_t boundary : boundaries) {
    ASSERT_GE(boundary, fed);
    const auto chunk = span.subspan(fed, boundary - fed);
    const Nanos stamp = 20_s + Nanos{static_cast<std::int64_t>(boundary)};
    for (auto& ut : engines) ut.engine->process_batch(chunk);
    fed = boundary;

    // Oracle: a fresh engine over exactly this prefix, finished at the
    // snapshot timestamp.
    auto oracle = builder_for(entry, refresh).build();
    oracle->process_batch(span.first(boundary));
    oracle->finish(stamp);
    const ResultTable& want = oracle->table("R1");

    for (auto& ut : engines) {
      const std::string context = std::string(entry.name) + "/" + ut.label +
                                  " refresh=" +
                                  std::to_string(refresh.count()) +
                                  " boundary=" + std::to_string(boundary);
      const EngineSnapshot snap = ut.engine->snapshot("R1", stamp);
      EXPECT_EQ(snap.records, boundary) << context;
      EXPECT_EQ(snap.time, stamp) << context;
      expect_tables_bit_identical(want, snap.table, context);

      // The read snapshot() is built on: the export itself, materialized
      // directly and through a one-source federation, is the same table.
      const kv::StoreExport exported = ut.engine->export_store("R1", stamp);
      EXPECT_EQ(exported.records, boundary) << context;
      EXPECT_EQ(exported.time, stamp) << context;
      expect_tables_bit_identical(want, materialize_r1(*ut.engine, exported),
                                  context + " export");
      expect_tables_bit_identical(want, collect_r1(*ut.engine, exported),
                                  context + " one-source collector");
    }
  }

  // Snapshots must not have perturbed anything: all engines still finish to
  // the untouched reference's exact result.
  auto reference = builder_for(entry, refresh).build();
  reference->process_batch(span);
  reference->finish(12_s);
  for (auto& ut : engines) {
    ut.engine->finish(12_s);
    expect_tables_bit_identical(reference->table("R1"),
                                ut.engine->table("R1"),
                                std::string(entry.name) + "/" + ut.label +
                                    " post-snapshot finish");
    EXPECT_EQ(ut.engine->refresh_count(), reference->refresh_count());
    // After finish() the export is the final backing store as is.
    expect_tables_bit_identical(
        ut.engine->table("R1"),
        materialize_r1(*ut.engine, ut.engine->export_store("R1", 12_s)),
        std::string(entry.name) + "/" + ut.label + " post-finish export");
  }
}

TEST(Snapshot, MatchesFreshEngineFinishAtEveryBoundary) {
  for (const CorpusEntry& entry : kCorpus) {
    run_snapshot_property(entry, /*refresh=*/0_s);
  }
}

TEST(Snapshot, MatchesWithPeriodicRefreshRunning) {
  for (const CorpusEntry& entry : kCorpus) {
    run_snapshot_property(entry, /*refresh=*/1_s);
  }
}

TEST(Snapshot, RepeatedSnapshotsAtTheSameBoundaryAgree) {
  // Two back-to-back pulls with no records in between must return the same
  // table (and exercise the sharded same-seq marker path).
  const auto records = workload();
  for (const bool sharded : {false, true}) {
    EngineBuilder builder = builder_for(kCorpus[0], 0_s);
    if (sharded) builder.sharded(4).dispatchers(2);
    auto engine = builder.build();
    engine->process_batch(records);
    const EngineSnapshot a = engine->snapshot("R1", 11_s);
    const EngineSnapshot b = engine->snapshot("R1", 11_s);
    expect_tables_bit_identical(a.table, b.table,
                                sharded ? "sharded" : "serial");
    engine->finish(12_s);
  }
}

TEST(Snapshot, ErrorsAreCleanOnBothEngines) {
  const char* source = R"(
S = SELECT srcip, pkt_len FROM T WHERE pkt_len > 300
R1 = SELECT COUNT GROUPBY srcip
)";
  for (const bool sharded : {false, true}) {
    EngineBuilder builder{compiler::compile_source(source)};
    builder.geometry(small_geometry());
    if (sharded) builder.sharded(2);
    auto engine = builder.build();
    // Unknown query.
    EXPECT_THROW((void)engine->snapshot("R9", 1_s), QueryError);
    // Stream SELECTs have no store to snapshot (their rows go to sinks).
    EXPECT_THROW((void)engine->snapshot("S", 1_s), QueryError);
    // After finish, snapshot is no longer available.
    engine->finish(1_s);
    EXPECT_THROW((void)engine->snapshot("R1", 2_s), Error);
  }
}

}  // namespace
}  // namespace perfq::runtime
