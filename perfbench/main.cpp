// perfbench, the benchmark program:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics. --trace 1 runs the same workload
// and seed three ways — untraced rounds (the baseline), rounds with a span
// around every public call, and stage-ledger passes — and reports the
// per-layer metrics plus the tracing overhead. The last line of stdout is the
// result object; everything human-readable goes to stderr.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "compiler/program.hpp"
#include "federation/collector.hpp"
#include "ledger.hpp"
#include "runtime/engine_builder.hpp"
#include "service/query_service.hpp"
#include "trace/flow_session.hpp"

namespace perfbench {
namespace {

using perfq::runtime::ResultTable;

/// Constructions at the start of a run: the first few of a process run slower
/// (first touch of the heap and of the page allocator's pools) and are not
/// timed; the timed ones join one sample per measured round.
constexpr std::size_t kSetupWarmup = 5;
constexpr std::size_t kSetupSamples = 5;

double cpu_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e9 + static_cast<double>(t.tv_usec) * 1e3;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  double size = 0, resident = 0;
  statm >> size >> resident;
  return resident * static_cast<double>(sysconf(_SC_PAGESIZE));
}

/// Linear-interpolated quantile (the same rule as Python's
/// statistics.quantiles(method="inclusive")).
double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& xs) { return quantile(xs, 0.5); }

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

// ---- run context ---------------------------------------------------------------

std::string read_first_line(const char* path) {
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  return line;
}

std::string context_json(const std::string& workload, std::uint64_t seed) {
  std::string cpu = "unknown";
  {
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line)) {
      if (line.rfind("model name", 0) == 0) {
        cpu = line.substr(line.find(':') + 2);
        break;
      }
    }
  }
  std::string thp = read_first_line("/sys/kernel/mm/transparent_hugepage/enabled");
  if (const auto a = thp.find('['); a != std::string::npos) {
    thp = thp.substr(a + 1, thp.find(']') - a - 1);
  }
  std::istringstream load(read_first_line("/proc/loadavg"));
  double l1 = 0, l5 = 0, l15 = 0;
  load >> l1 >> l5 >> l15;
  char buf[1024];
  std::snprintf(buf, sizeof buf,
                "{\"workload\": \"%s\", \"seed\": %llu, \"cpu\": \"%s\", \"nproc\": %u, "
                "\"loadavg\": [%.2f, %.2f, %.2f], \"thp\": \"%s\", "
                "\"compiler\": \"%s\", \"build_type\": \"%s\"}",
                workload.c_str(), static_cast<unsigned long long>(seed),
                json_escape(cpu).c_str(), std::thread::hardware_concurrency(), l1, l5,
                l15, json_escape(thp).c_str(), json_escape(__VERSION__).c_str(),
                PERFBENCH_BUILD_TYPE);
  return buf;
}

// ---- spans -------------------------------------------------------------------------

/// In-memory span log: (name, start, end, parent) per public call, written
/// out when the run ends. Null tracer = untraced run.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::uint64_t start = 0, end = 0;
    std::uint32_t parent = 0;
  };

  std::uint32_t begin(const char* name, std::uint32_t parent) {
    spans_.push_back(Span{name, now_ns(), 0, parent});
    return static_cast<std::uint32_t>(spans_.size());  // ids start at 1
  }
  void end(std::uint32_t id) { spans_[id - 1].end = now_ns(); }

  /// Durations of the spans called `name` among the first `limit` recorded,
  /// in units of `scale` ns.
  [[nodiscard]] std::vector<double> durations(const char* name, double scale,
                                              std::size_t limit = SIZE_MAX) const {
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size() && i < limit; ++i) {
      if (std::strcmp(spans_[i].name, name) == 0) {
        out.push_back(static_cast<double>(spans_[i].end - spans_[i].start) / scale);
      }
    }
    return out;
  }

  void write(const std::string& path, const std::string& context) const {
    std::filesystem::create_directories(std::filesystem::path(path).parent_path());
    std::ofstream out(path);
    out << "{\"context\": " << context << "}\n";
    const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\": " << i + 1 << ", \"parent\": " << s.parent << ", \"name\": \""
          << s.name << "\", \"start_ns\": " << s.start - origin
          << ", \"end_ns\": " << s.end - origin << "}\n";
    }
  }

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
};

/// Scoped span; a no-op without a tracer.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, std::uint32_t parent)
      : tracer_(tracer), id_(tracer ? tracer->begin(name, parent) : 0) {}
  ~SpanScope() {
    if (tracer_) tracer_->end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  [[nodiscard]] std::uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

// ---- measurements ----------------------------------------------------------------

struct Samples {
  std::vector<double> setup_s, burst_us, pull_ms, finish_ms, attach_ms, detach_ms;
  double ingest_ns = 0.0;   ///< wall time inside process_wire_batch
  double ingest_cpu_ns = 0.0;  ///< process CPU time inside it (traced rounds)
  std::uint64_t frames = 0;
  double window_cpu_ns = 0.0;  ///< process CPU from first burst to finish()
  std::uint64_t window_records = 0;
  double peak_rss = 0.0;
  double backing_writes_per_krec = 0.0;
  // Counts of the last round (identical every round).
  double hit_ratio = 0.0, evictions_per_krec = 0.0, valid_key_ratio = 0.0;
  double ring_stalls_per_krec = 0.0, merge_absorb_us_p50 = 0.0;
  std::size_t rounds = 0;
};

/// Operations attempted and failed. `what` renders the failure message
/// only when the check fails.
struct Ops {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  template <typename What>
  void record(bool ok, What&& what) {
    ++attempted;
    if (ok) return;
    if (++failed <= 20) std::fprintf(stderr, "FAILED: %s\n", std::string(what()).c_str());
  }
};

/// One constructed engine + service (the unit setup_s times).
struct Instance {
  perfq::runtime::Engine* engine = nullptr;  ///< owned by the service
  std::unique_ptr<perfq::service::QueryService> service;
  double setup_s = 0.0;  ///< compile + build + service, until the first burst
};

bool same_rows(const ResultTable& a, const ResultTable& b) {
  if (a.row_count() != b.row_count()) return false;
  for (std::size_t r = 0; r < a.row_count(); ++r) {
    const auto& x = a.rows()[r];
    const auto& y = b.rows()[r];
    if (x.size() != y.size() ||
        std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

const std::vector<std::string> kTuple{"srcip", "dstip", "srcport", "dstport", "proto"};
std::vector<std::string> tuple_and(std::vector<std::string> extra) {
  std::vector<std::string> cols = kTuple;
  cols.insert(cols.end(), extra.begin(), extra.end());
  return cols;
}

Tuple5 tuple_of_row(const std::vector<double>& row, const std::vector<std::size_t>& idx) {
  return Tuple5{static_cast<std::uint32_t>(row[idx[0]]), static_cast<std::uint32_t>(row[idx[1]]),
                static_cast<std::uint16_t>(row[idx[2]]), static_cast<std::uint16_t>(row[idx[3]]),
                static_cast<std::uint8_t>(row[idx[4]])};
}

/// Compare an EWMA-by-5tuple table with its sequential reference.
bool ewma_table_matches(const ResultTable& table,
                        const std::unordered_map<Tuple5, double, Tuple5Hash>& want) {
  if (table.row_count() != want.size()) return false;
  std::vector<std::size_t> idx;
  for (const auto& c : kTuple) idx.push_back(table.column(c));
  const std::size_t v = table.column("ewma");
  for (const auto& row : table.rows()) {
    const auto it = want.find(tuple_of_row(row, idx));
    if (it == want.end() || !ewma_close(it->second, row[v])) return false;
  }
  return true;
}

class Runner {
 public:
  Runner(WorkloadSpec spec, const Schedule& schedule, const Inputs& inputs,
         const Reference& ref)
      : spec_(std::move(spec)), schedule_(schedule), inputs_(inputs), ref_(ref) {}

  Instance construct(Tracer* tr, std::uint32_t parent) {
    SpanScope span(tr, "setup", parent);
    const std::uint64_t t0 = now_ns();
    Instance inst;
    perfq::compiler::CompiledProgram program = [&] {
      SpanScope c(tr, "lang.compile", span.id());
      return perfq::compiler::compile_source(base_program(spec_), kParams);
    }();
    perfq::runtime::EngineBuilder builder(std::move(program));
    builder.geometry(spec_.geometry);
    if (spec_.sharded) builder.sharded(2).dispatchers(1);
    std::unique_ptr<perfq::runtime::Engine> engine = builder.build();
    inst.engine = engine.get();
    perfq::service::ServiceConfig config;
    config.tenant_geometry = spec_.tenant_geometry;
    config.params = kParams;
    inst.service =
        std::make_unique<perfq::service::QueryService>(std::move(engine), config);
    inst.setup_s = static_cast<double>(now_ns() - t0) * 1e-9;
    return inst;
  }

  /// One round: construct, feed every burst on the schedule, finish, check;
  /// then one more construction for setup_s.
  void round(Samples& s, Ops& ops, Tracer* tr, std::uint32_t parent, bool export_every_pull) {
    {
      SpanScope round_span(tr, "round", parent);
      feed(s, ops, tr, round_span.id(), export_every_pull);
    }
    // The setup_s samples are spread over the run, so that they see the
    // machine over the same stretch of time as every other metric. On the
    // serial engine the sample is built while the round's engine is still
    // alive (feed): built after its teardown, it would also pay the
    // allocator's reclaim of the hundreds of thousands of blocks that
    // teardown frees. The sharded sample waits for the teardown, so that no
    // more threads run than the workload's own four.
    if (spec_.sharded) s.setup_s.push_back(construct(nullptr, 0).setup_s);
  }

  [[nodiscard]] const ResultTable& last_r1() const { return last_r1_; }
  void set_baseline_rss(double b) { baseline_rss_ = b; }

 private:
  void feed(Samples& s, Ops& ops, Tracer* tr, std::uint32_t rid, bool export_every_pull) {
    Instance inst = construct(tr, rid);
    perfq::service::QueryService& svc = *inst.service;
    const auto& frames = inputs_.frames;
    const std::size_t n = frames.size();

    const double cpu0 = cpu_ns();
    const double ingest0 = s.ingest_ns;
    std::size_t next_pull = 0, next_window = 0;
    bool attached = false;
    std::vector<std::vector<double>> batch;
    Digest rows;  ///< the stream tenant's rows drained in this window
    const auto sample_rss = [&] {
      s.peak_rss = std::max(s.peak_rss, rss_bytes() - baseline_rss_);
    };

    for (std::size_t k = 0; k <= schedule_.bursts; ++k) {
      if (attached && schedule_.windows[next_window].detach_burst == k) {
        detach_cycle(s, ops, tr, rid, svc, next_window, rows);
        attached = false;
        ++next_window;
      }
      if (!attached && next_window < schedule_.windows.size() &&
          schedule_.windows[next_window].attach_burst == k) {
        attach_cycle(s, ops, tr, rid, svc, next_window);
        attached = true;
        rows = Digest{};
      }
      if (k == schedule_.bursts) break;

      const std::size_t lo = k * spec_.burst;
      const std::size_t hi = std::min(n, lo + spec_.burst);
      const std::span<const FrameObservation> burst{frames.data() + lo, hi - lo};
      perfq::trace::IngestStats stats;
      {
        SpanScope span(tr, "ingest", rid);
        const double c0 = tr ? cpu_ns() : 0.0;
        const std::uint64_t t0 = now_ns();
        stats = svc.process_wire_batch(burst);
        const std::uint64_t t1 = now_ns();
        if (tr) s.ingest_cpu_ns += cpu_ns() - c0;
        s.ingest_ns += static_cast<double>(t1 - t0);
        s.burst_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
      }
      s.frames += burst.size();
      ops.record(stats.parsed == burst.size(), [&] {
        return "burst " + std::to_string(k) + ": parsed " + std::to_string(stats.parsed) +
               " of " + std::to_string(burst.size()) + " frames";
      });

      if (attached) {
        SpanScope span(tr, "service.drain", rid);
        svc.drain("T_drops", batch);
        for (const auto& row : batch) rows.add_row(row.data(), row.size());
        ops.record(true, [] { return ""; });
      }
      if ((k + 1) % spec_.metrics_every == 0) {
        perfq::runtime::EngineMetrics m;
        {
          SpanScope span(tr, "obs.metrics", rid);
          m = svc.metrics();
        }
        ops.record(!m.faulted && m.records == hi, [&] {
          return "metrics(): records " + std::to_string(m.records) + ", want " +
                 std::to_string(hi);
        });
      }
      if (next_pull < schedule_.pull_after.size() &&
          schedule_.pull_after[next_pull] == k + 1) {
        pull(s, ops, tr, rid, inst, next_pull, export_every_pull || next_pull == 0);
        sample_rss();
        ++next_pull;
      }
    }

    {
      SpanScope span(tr, "finish", rid);
      const std::uint64_t t0 = now_ns();
      svc.finish();
      s.finish_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    }
    s.window_cpu_ns += cpu_ns() - cpu0;
    s.window_records += n;
    sample_rss();
    check_final(s, ops, inst);
    last_r1_ = svc.table("R1");
    ++s.rounds;
    std::fprintf(stderr, "  round %zu: ingest %.4f Mrec/s, finish %.2f ms\n", s.rounds,
                 static_cast<double>(n) / (s.ingest_ns - ingest0) * 1e3, s.finish_ms.back());
    if (!spec_.sharded) s.setup_s.push_back(construct(nullptr, 0).setup_s);
  }

  void attach_cycle(Samples& s, Ops& ops, Tracer* tr, std::uint32_t parent,
                    perfq::service::QueryService& svc, std::size_t w) {
    SpanScope span(tr, "tenant.attach", parent);
    if (tr) {
      // The compile QueryService::attach performs, timed on its own.
      SpanScope c(tr, "lang.tenant_compile", span.id());
      (void)perfq::compiler::compile_source(kTenantSwitchSource, kParams);
    }
    const std::uint64_t t0 = now_ns();
    perfq::service::TenantInfo sw, st;
    {
      SpanScope a(tr, "service.attach", span.id());
      sw = svc.attach("T_ewma", kTenantSwitchSource, spec_.tenant_geometry);
    }
    {
      SpanScope a(tr, "service.attach", span.id());
      st = svc.attach("T_drops", kTenantStreamSource);
    }
    s.attach_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    const std::uint64_t epoch = schedule_.windows[w].first_record;
    ops.record(sw.attach_records == epoch, [] { return "attach epoch of T_ewma"; });
    ops.record(st.attach_records == epoch, [] { return "attach epoch of T_drops"; });
  }

  void detach_cycle(Samples& s, Ops& ops, Tracer* tr, std::uint32_t parent,
                    perfq::service::QueryService& svc, std::size_t w,
                    const Digest& rows) {
    SpanScope span(tr, "tenant.detach", parent);
    std::uint64_t dropped = ~std::uint64_t{0};
    for (const auto& st : svc.metrics().streams) {
      if (st.query == "T_drops") dropped = st.rows_dropped;
    }
    // Rows drained + rows dropped == the window's drops, none dropped, and
    // the drained rows are exactly the reference's.
    ops.record(dropped == 0 && rows.rows == ref_.window_drops[w] &&
                   rows == ref_.window_rows[w],
               [&] {
                 return "stream tenant window " + std::to_string(w) + ": drained " +
                        std::to_string(rows.rows) + " + dropped " +
                        std::to_string(dropped) + ", want " +
                        std::to_string(ref_.window_drops[w]);
               });
    const std::uint64_t t0 = now_ns();
    ResultTable switch_table;
    {
      SpanScope d(tr, "service.detach", span.id());
      (void)svc.detach("T_drops");
    }
    {
      SpanScope d(tr, "service.detach", span.id());
      switch_table = svc.detach("T_ewma");
    }
    s.detach_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    ops.record(ewma_table_matches(switch_table, ref_.window_ewma[w]), [&] {
      return "switch tenant window " + std::to_string(w) + ": " +
             std::to_string(switch_table.row_count()) + " rows, want " +
             std::to_string(ref_.window_ewma[w].size());
    });
  }

  void pull(Samples& s, Ops& ops, Tracer* tr, std::uint32_t parent, Instance& inst,
            std::size_t j, bool with_export) {
    SpanScope span(tr, "pull", parent);
    perfq::runtime::EngineSnapshot snap;
    {
      SpanScope p(tr, "service.snapshot", span.id());
      const std::uint64_t t0 = now_ns();
      snap = inst.service->snapshot("R1");
      s.pull_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    }
    const Digest got = digest_table(snap.table, tuple_and({"COUNT", "SUM(pkt_len)"}));
    ops.record(snap.records == schedule_.pull_records[j] && got == ref_.r1_prefix[j], [&] {
      return "pull " + std::to_string(j) + ": R1 at record " + std::to_string(snap.records) +
             " differs from the reference";
    });
    if (!with_export) return;
    const perfq::compiler::CompiledProgram& program = inst.engine->program();
    const perfq::compiler::SwitchQueryPlan* plan =
        program.plan_for(program.analysis.query_index("R1"));
    perfq::kv::StoreExport exported;
    {
      SpanScope e(tr, "engine.export_store", span.id());
      exported = inst.engine->export_store("R1", inst.service->now());
    }
    perfq::federation::Collector collector(program, *plan);
    perfq::federation::FederatedResult fed;
    {
      SpanScope c(tr, "federation.collect", span.id());
      {
        SpanScope a(tr, "collector.add", c.id());
        collector.add(0, exported);
      }
      SpanScope m(tr, "collector.materialize", c.id());
      fed = collector.materialize();
    }
    ops.record(same_rows(fed.table, snap.table), [&] {
      return "pull " + std::to_string(j) + ": Collector::materialize of export_store differs "
             "from the snapshot";
    });
  }

  void check_final(Samples& s, Ops& ops, Instance& inst) {
    perfq::service::QueryService& svc = *inst.service;
    const auto check_digest = [&](const char* name, const std::vector<std::string>& cols,
                                  const Digest& want) {
      const ResultTable& t = svc.table(name);
      bool ok = false;
      try {
        ok = digest_table(t, cols) == want;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s schema: %s (%s)\n", name,
                     t.schema().to_string().c_str(), e.what());
      }
      ops.record(ok, [&] { return std::string("final ") + name + " differs from the reference"; });
    };
    check_digest("R1", tuple_and({"COUNT", "SUM(pkt_len)"}), ref_.r1);
    if (!spec_.sharded) {
      check_digest("R2", tuple_and({"COUNT"}), ref_.r2);
      check_digest("R3", tuple_and({"R2.COUNT / R1.COUNT"}), ref_.r3);
      check_digest("R6", {"srcip", "pkt_len / 256", "COUNT"}, ref_.r6);
      ops.record(ewma_table_matches(svc.table("R4"), ref_.r4),
                 [] { return "final R4 differs from the sequential EWMA"; });
      check_r5(ops, inst);
    }
    // Counts (identical every round of a run).
    std::uint64_t hits = 0, packets = 0, evictions = 0, writes = 0;
    std::uint64_t valid = 0, total = 0, r5_valid = 0, r5_total = 0;
    bool has_r5 = false;
    for (const auto& st : inst.engine->store_stats()) {
      if (st.attached) continue;
      hits += st.cache.hits;
      packets += st.cache.packets;
      evictions += st.cache.evictions;
      writes += st.backing_writes;
      valid += st.accuracy.valid_keys;
      total += st.accuracy.total_keys;
      if (st.name == "R5") {
        has_r5 = true;
        r5_valid = st.accuracy.valid_keys;
        r5_total = st.accuracy.total_keys;
      }
    }
    const double krec = static_cast<double>(inputs_.frames.size()) / 1000.0;
    s.hit_ratio = packets ? static_cast<double>(hits) / static_cast<double>(packets) : 0.0;
    s.evictions_per_krec = static_cast<double>(evictions) / krec;
    s.backing_writes_per_krec = static_cast<double>(writes) / krec;
    s.valid_key_ratio = has_r5 ? static_cast<double>(r5_valid) / static_cast<double>(r5_total)
                               : static_cast<double>(valid) / static_cast<double>(total);
    const perfq::runtime::EngineMetrics m = svc.metrics();
    std::uint64_t stalls = 0;
    for (const auto& r : m.rings) stalls += r.push_stalls;
    s.ring_stalls_per_krec = static_cast<double>(stalls) / krec;
    s.merge_absorb_us_p50 = m.absorb_ns.quantile_ns(0.5) * 1e-3;
  }

  /// R5 (nonmt, not linear in state): a key is valid when one value segment
  /// covers the window; each valid key must equal the sequential fold exactly.
  void check_r5(Ops& ops, Instance& inst) {
    const perfq::compiler::CompiledProgram& program = inst.engine->program();
    const perfq::compiler::SwitchQueryPlan* plan =
        program.plan_for(program.analysis.query_index("R5"));
    const perfq::kv::StoreExport ex = inst.engine->export_store("R5", inst.service->now());
    bool ok = ex.entries.size() == ref_.r5.size();
    for (const auto& e : ex.entries) {
      if (!e.valid) continue;
      const std::vector<double> key = perfq::compiler::unpack_key(*plan, e.key);
      const Tuple5 t{static_cast<std::uint32_t>(key[0]), static_cast<std::uint32_t>(key[1]),
                     static_cast<std::uint16_t>(key[2]), static_cast<std::uint16_t>(key[3]),
                     static_cast<std::uint8_t>(key[4])};
      const auto it = ref_.r5.find(t);
      ok = ok && it != ref_.r5.end() && e.value[0] == it->second.maxseq &&
           e.value[1] == it->second.count;
    }
    ops.record(ok, [] { return "final R5 differs from the sequential nonmt"; });
  }

  WorkloadSpec spec_;
  const Schedule& schedule_;
  const Inputs& inputs_;
  const Reference& ref_;
  double baseline_rss_ = 0.0;
  ResultTable last_r1_;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be positive");
  return a;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, const Ops& ops, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(ops.attempted);
  out += ", \"failed\": " + std::to_string(ops.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// Run rounds until `budget_s` has elapsed (at least one round).
void run_rounds(Runner& runner, Samples& s, Ops& ops, Tracer* tr, double budget_s,
                bool export_every_pull) {
  const std::uint64_t t0 = now_ns();
  const std::uint32_t phase = tr ? tr->begin("phase.traced", 0) : 0;
  do {
    try {
      runner.round(s, ops, tr, phase, export_every_pull);
    } catch (const std::exception& e) {
      ops.record(false, [&] { return std::string("round aborted: ") + e.what(); });
    }
  } while (static_cast<double>(now_ns() - t0) * 1e-9 < budget_s && ops.failed == 0);
  if (tr) tr->end(phase);
}

/// Run-to-run noise of ingest on the reference machine: the ingest_mrps bound
/// in BENCHMARK.json. A ledger whose stage sum strays further from the
/// untraced ingest cost is timing something other than the engine's work.
constexpr double kLedgerNoise = 0.25;

int run(const Args& args) {
  const WorkloadSpec spec = workload_spec(args.workload, args.seed);
  const std::string context = context_json(args.workload, args.seed);
  std::printf("{\"context\": %s}\n", context.c_str());

  // Inputs, schedule and reference: all before any clock starts.
  Inputs inputs;
  Schedule schedule;
  Reference ref;
  {
    const std::vector<PacketRecord> records =
        perfq::trace::generate_all(spec.trace, spec.records);
    schedule = make_schedule(spec, records.size());
    ref = compute_reference(records, schedule, !spec.sharded);
    inputs = serialize_frames(records);
  }
  std::uint64_t touch = 0;
  for (const std::byte b : inputs.slots) touch += std::to_integer<unsigned>(b);
  std::fprintf(stderr,
               "perfbench %s seed %llu: %zu records, %zu bursts of %zu, %zu pulls, "
               "%zu tenant cycles (touch %llu)\n",
               spec.name.c_str(), static_cast<unsigned long long>(args.seed),
               inputs.frames.size(), schedule.bursts, spec.burst, schedule.pull_after.size(),
               schedule.windows.size(), static_cast<unsigned long long>(touch));

  Runner runner(spec, schedule, inputs, ref);
  runner.set_baseline_rss(rss_bytes());
  Samples untraced;
  Ops ops;
  Tracer tracer;
  Tracer* const tr = args.trace ? &tracer : nullptr;
  // setup_s: the median of constructions at the start of the run and after
  // every measured round (Runner::round).
  std::vector<double> setup_s;
  {
    SpanScope phase(tr, "phase.setup", 0);
    for (std::size_t i = 0; i < kSetupWarmup + kSetupSamples; ++i) {
      const double seconds = runner.construct(tr, phase.id()).setup_s;
      if (i >= kSetupWarmup) setup_s.push_back(seconds);
    }
  }
  const std::size_t setup_spans = tracer.size();
  // One unmeasured (but checked) round: the first engine of a process pays
  // one-off costs (thread start-up, first touch of the heap) that the
  // resident service pays once, not per round.
  {
    Samples warmup;
    run_rounds(runner, warmup, ops, nullptr, 0.0, false);
  }
  const double mb = 1024.0 * 1024.0;

  std::vector<Metric> metrics;
  if (!args.trace) {
    run_rounds(runner, untraced, ops, nullptr, args.seconds, false);
    setup_s.insert(setup_s.end(), untraced.setup_s.begin(), untraced.setup_s.end());
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"ingest_mrps", static_cast<double>(untraced.frames) / untraced.ingest_ns * 1e3, "Mrec/s"},
        {"burst_us_p50", quantile(untraced.burst_us, 0.50), "us"},
        {"burst_us_p99", quantile(untraced.burst_us, 0.99), "us"},
        {"cpu_ns_per_rec", untraced.window_cpu_ns / static_cast<double>(untraced.window_records), "ns"},
        {"pull_ms_p50", median(untraced.pull_ms), "ms"},
        {"finish_ms", median(untraced.finish_ms), "ms"},
        {"attach_ms_p50", median(untraced.attach_ms), "ms"},
        {"detach_ms_p50", median(untraced.detach_ms), "ms"},
        {"peak_rss_mb", untraced.peak_rss / mb, "MB"},
        {"backing_writes_per_krec", untraced.backing_writes_per_krec, "1/krec"},
    };
    std::fprintf(stderr, "burst us: p50 %.1f p90 %.1f p95 %.1f p99 %.1f p99.9 %.1f max %.1f\n",
                 quantile(untraced.burst_us, 0.5), quantile(untraced.burst_us, 0.9),
                 quantile(untraced.burst_us, 0.95), quantile(untraced.burst_us, 0.99),
                 quantile(untraced.burst_us, 0.999), quantile(untraced.burst_us, 1.0));
    std::fprintf(stderr,
                 "%zu rounds, %zu setups, %zu bursts, %zu pulls, %zu attach cycles\n",
                 untraced.rounds, setup_s.size(), untraced.burst_us.size(),
                 untraced.pull_ms.size(), untraced.attach_ms.size());
  } else {
    // Untraced rounds interleaved with stage-ledger passes over the same
    // bursts, so slow drift of the machine hits both sides alike. The first
    // pass's R1 must be byte-identical to the engine's.
    std::vector<double> round_ns, check, key, fold, absorb, sums;
    const std::uint64_t l0 = now_ns();
    do {
      const double ns0 = untraced.ingest_ns;
      const std::uint64_t f0 = untraced.frames;
      run_rounds(runner, untraced, ops, nullptr, 0.0, false);
      round_ns.push_back((untraced.ingest_ns - ns0) /
                         static_cast<double>(untraced.frames - f0));
      const LedgerPass pass = run_ledger(spec, schedule, inputs);
      if (check.empty()) {
        ops.record(same_rows(pass.r1, runner.last_r1()),
                   [] { return "ledger R1 is not byte-identical to the engine's R1"; });
      }
      check.push_back(pass.check_ns);
      key.push_back(pass.key_ns);
      fold.push_back(pass.fold_ns);
      absorb.push_back(pass.absorb_ns);
      sums.push_back(pass.sum());
    } while ((static_cast<double>(now_ns() - l0) * 1e-9 < args.seconds * 2.0 / 3.0 ||
              check.size() < 3) &&
             ops.failed == 0);
    const double untraced_ns_per_rec = median(round_ns);
    const double stage_sum = median(sums);
    const double residual = untraced_ns_per_rec - stage_sum;

    // Traced rounds: a span around every public call.
    Samples traced;
    run_rounds(runner, traced, ops, tr, args.seconds / 3.0, true);
    // Tracing overhead on the ingest layer: the ingest span (clock reads,
    // CPU-time reads, span log) against the untraced burst time.
    double ingest_span_ns = 0.0;
    for (double d : tracer.durations("ingest", 1.0)) ingest_span_ns += d;
    const double traced_ns_per_rec = ingest_span_ns / static_cast<double>(traced.frames);

    std::fprintf(stderr, "stage ledger (%zu passes, ns/record, median):\n", check.size());
    std::fprintf(stderr, "  %-28s %10.2f\n", "wire::check_frame", median(check));
    std::fprintf(stderr, "  %-28s %10.2f\n", "SwitchFoldCore::prepare", median(key));
    std::fprintf(stderr, "  %-28s %10.2f\n", "SwitchFoldCore::fold (self)", median(fold));
    std::fprintf(stderr, "  %-28s %10.2f\n", "BackingStore::absorb", median(absorb));
    std::fprintf(stderr, "  %-28s %10.2f\n", "stage sum", stage_sum);
    std::fprintf(stderr, "  %-28s %10.2f\n", "untraced process_wire_batch", untraced_ns_per_rec);
    std::fprintf(stderr, "  %-28s %10.2f (%.1f%%)\n", "residual", residual,
                 100.0 * residual / untraced_ns_per_rec);
    if (spec.sharded) {
      std::fprintf(stderr,
                   "  (sharded: the stages run on two workers, so the stage sum is CPU "
                   "work, not the caller's wall time)\n");
    } else if (std::abs(residual) > kLedgerNoise * untraced_ns_per_rec) {
      std::fprintf(stderr,
                   "  DRIFT: stage sum and untraced ingest differ by more than the "
                   "benchmark's noise (%.0f%%)\n", 100 * kLedgerNoise);
    }
    std::fprintf(stderr, "traced ingest %.2f ns/rec vs untraced %.2f ns/rec (%zu spans)\n",
                 traced_ns_per_rec, untraced_ns_per_rec, tracer.size());

    const std::string path = ".perfbench_out/spans_" + spec.name + "_seed" +
                             std::to_string(args.seed) + ".jsonl";
    tracer.write(path, context);
    std::fprintf(stderr, "spans written to %s\n", path.c_str());

    metrics = {
        {"packet.check_ns", median(check), "ns"},
        {"compiler.key_ns", median(key), "ns"},
        {"kvstore.fold_ns", median(fold), "ns"},
        {"kvstore.absorb_ns", median(absorb), "ns"},
        {"kvstore.hit_ratio", traced.hit_ratio, "ratio"},
        {"kvstore.evictions_per_krec", traced.evictions_per_krec, "1/krec"},
        {"kvstore.valid_key_ratio", traced.valid_key_ratio, "ratio"},
        {"runtime.residual_ns", residual, "ns"},
        {"runtime.export_ms_p50", median(tracer.durations("engine.export_store", 1e6)), "ms"},
        {"federation.collect_ms_p50", median(tracer.durations("federation.collect", 1e6)), "ms"},
        {"runtime.ring_push_stalls_per_krec", traced.ring_stalls_per_krec, "1/krec"},
        {"runtime.merge_absorb_us_p50", traced.merge_absorb_us_p50, "us"},
        {"runtime.cores_busy", traced.ingest_cpu_ns / traced.ingest_ns, "cores"},
        {"lang.compile_ms", median(tracer.durations("lang.compile", 1e6, setup_spans)), "ms"},
        {"lang.tenant_compile_ms", median(tracer.durations("lang.tenant_compile", 1e6)), "ms"},
        {"service.drain_us_p50", median(tracer.durations("service.drain", 1e3)), "us"},
        {"obs.metrics_us_p50", median(tracer.durations("obs.metrics", 1e3)), "us"},
        {"trace.overhead_pct", 100.0 * (traced_ns_per_rec - untraced_ns_per_rec) / untraced_ns_per_rec, "%"},
    };
  }
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-36s %14.4f %s\n", m.name.c_str(), m.value, m.unit);
  }
  const bool correct = ops.failed == 0;
  print_result(correct, ops, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
