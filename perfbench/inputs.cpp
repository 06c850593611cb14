// Workload definitions, the burst schedule, frame serialization and the
// independent reference. Everything here runs before the clock starts.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "bench.hpp"
#include "common/hash.hpp"
#include "packet/wire.hpp"

namespace perfbench {

using perfq::Nanos;
using perfq::kv::CacheGeometry;

const char* const kTenantSwitchSource = R"(
def ewma (lat_est, (tin, tout)):
    lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)

SELECT 5tuple, ewma GROUPBY 5tuple WHERE tout != infinity
)";

const char* const kTenantStreamSource =
    "SELECT srcip, dstport FROM T WHERE tout == infinity";

namespace {

// The ROADMAP ledger's canonical query shapes R1..R6.
const char* const kFullProgram = R"(
def ewma (lat_est, (tin, tout)):
    lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)

def nonmt ((maxseq, nm_count), (tcpseq)):
    if maxseq > tcpseq: nm_count = nm_count + 1
    maxseq = max(maxseq, tcpseq)

R1 = SELECT COUNT, SUM(pkt_len) GROUPBY 5tuple
R2 = SELECT COUNT GROUPBY 5tuple WHERE tout == infinity
R3 = SELECT R2.COUNT / R1.COUNT FROM R1 JOIN R2 ON 5tuple
R4 = SELECT 5tuple, ewma GROUPBY 5tuple WHERE tout != infinity
R5 = SELECT 5tuple, nonmt GROUPBY 5tuple WHERE proto == TCP
R6 = SELECT COUNT GROUPBY srcip, pkt_len / 256
)";

const char* const kR1Program = R"(
R1 = SELECT COUNT, SUM(pkt_len) GROUPBY 5tuple
)";

}  // namespace

const char* base_program(const WorkloadSpec& spec) {
  return spec.sharded ? kR1Program : kFullProgram;
}

WorkloadSpec workload_spec(const std::string& name, std::uint64_t seed) {
  WorkloadSpec s;
  s.name = name;
  s.trace.seed = seed;
  // A lighter Pareto tail than the CAIDA-like default (alpha 1.2, cap
  // 200k): a handful of giant flows would otherwise decide, seed by seed, how
  // many distinct keys fit before the record cap, and every per-key cost
  // (pulls, finish, backing writes) with them.
  s.trace.flow_size_alpha = 1.6;
  s.trace.max_flow_pkts = 5'000;
  if (name == "hot_serial") {
    // A few thousand heavy-tailed, long-lived flows: every key of every
    // query (and of the tenant) stays cache-resident, so the per-record path
    // dominates and the backing store sees only the final flush.
    s.trace.num_flows = 4'096;
    s.trace.mean_flow_pkts = 600.0;
    s.trace.duration = Nanos{30'000'000'000};
    s.trace.median_flow_duration = Nanos{20'000'000'000};
    s.trace.flow_duration_sigma = 0.5;
    s.records = 1'000'000;
    s.geometry = CacheGeometry::set_associative(1u << 16, 8);
    s.tenant_geometry = CacheGeometry::set_associative(1u << 14, 8);
    s.pulls = 16;
    s.tenant_cycles = 8;
    s.metrics_every = 64;
  } else if (name == "evict_serial") {
    // A flow population six times the caches, every flow alive for half the
    // trace: most records miss, evict and are absorbed, and the five stores
    // grow to a few hundred thousand keys that pulls copy. Rounds stay small
    // (~130 MB) so that a run holds about nine of them.
    s.trace.num_flows = 80'000;
    s.trace.mean_flow_pkts = 4.0;
    s.trace.duration = Nanos{10'000'000'000};
    s.trace.median_flow_duration = Nanos{5'000'000'000};
    s.trace.flow_duration_sigma = 1.0;
    s.records = 200'000;
    s.geometry = CacheGeometry::set_associative(1u << 13, 8);
    s.tenant_geometry = CacheGeometry::set_associative(1u << 12, 8);
    s.pulls = 6;
    s.tenant_cycles = 8;
    s.metrics_every = 64;
  } else if (name == "churn_sharded") {
    // sharded(2) with one dispatcher (caller + 2 workers + merge = 4
    // threads): R1 only, while a switch tenant and a stream tenant are
    // attached and detached many times per round.
    s.sharded = true;
    s.trace.num_flows = 50'000;
    s.trace.mean_flow_pkts = 40.0;
    s.trace.duration = Nanos{20'000'000'000};
    s.trace.median_flow_duration = Nanos{10'000'000'000};
    s.trace.flow_duration_sigma = 0.5;
    s.records = 1'000'000;
    s.geometry = CacheGeometry::set_associative(1u << 16, 8);
    s.tenant_geometry = CacheGeometry::set_associative(1u << 12, 8);
    s.pulls = 8;
    s.tenant_cycles = 32;
    s.metrics_every = 32;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (hot_serial, evict_serial, churn_sharded)");
  }
  return s;
}

Schedule make_schedule(const WorkloadSpec& spec, std::size_t records) {
  Schedule s;
  s.bursts = (records + spec.burst - 1) / spec.burst;
  const auto boundary = [&](std::size_t bursts) {
    return std::min(records, bursts * spec.burst);
  };
  for (std::size_t j = 0; j < spec.pulls; ++j) {
    const std::size_t after = (j + 1) * s.bursts / (spec.pulls + 1);
    s.pull_after.push_back(after);
    s.pull_records.push_back(boundary(after));
  }
  const std::size_t seg = s.bursts / std::max<std::size_t>(1, spec.tenant_cycles);
  for (std::size_t c = 0; c < spec.tenant_cycles; ++c) {
    TenantWindow w;
    w.attach_burst = c * seg + seg / 4;
    w.detach_burst = w.attach_burst + seg / 2;
    w.first_record = boundary(w.attach_burst);
    w.end_record = boundary(w.detach_burst);
    s.windows.push_back(w);
  }
  return s;
}

Inputs serialize_frames(const std::vector<PacketRecord>& records) {
  constexpr std::size_t kSlot = 64;
  Inputs in;
  in.slots.resize(records.size() * kSlot);
  in.frames.reserve(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const PacketRecord& r = records[i];
    const std::vector<std::byte> full = perfq::wire::serialize(r.pkt);
    const std::size_t header = perfq::wire::kEthHeaderLen +
                               perfq::wire::kIpv4HeaderLen +
                               (r.pkt.is_tcp() ? perfq::wire::kTcpHeaderLen
                                               : perfq::wire::kUdpHeaderLen);
    std::byte* slot = in.slots.data() + i * kSlot;
    std::memcpy(slot, full.data(), header);
    in.frames.push_back(FrameObservation{{slot, header}, r.qid, r.tin, r.tout, r.qsize});
  }
  return in;
}

// ---- reference ---------------------------------------------------------------

void Digest::add_row(const double* values, std::size_t n) {
  std::uint64_t h = 0x243f6a8885a308d3ULL;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &values[i], sizeof bits);
    h = perfq::mix64(h ^ bits) + 0x9e3779b97f4a7c15ULL;
  }
  ++rows;
  sum += perfq::mix64(h);
}

std::size_t Tuple5Hash::operator()(const Tuple5& t) const {
  const std::uint64_t a = (std::uint64_t{t.sip} << 32) | t.dip;
  const std::uint64_t b = (std::uint64_t{t.sport} << 24) |
                          (std::uint64_t{t.dport} << 8) | t.proto;
  return static_cast<std::size_t>(perfq::mix64(a ^ perfq::mix64(b)));
}

bool ewma_close(double want, double got) {
  if (want == got) return true;
  return std::abs(want - got) <= kEwmaRelTol * std::max(std::abs(want), std::abs(got));
}

Digest digest_table(const perfq::runtime::ResultTable& table,
                    const std::vector<std::string>& columns) {
  std::vector<std::size_t> idx;
  for (const auto& c : columns) idx.push_back(table.column(c));
  Digest d;
  std::vector<double> row(idx.size());
  for (const auto& r : table.rows()) {
    for (std::size_t i = 0; i < idx.size(); ++i) row[i] = r[idx[i]];
    d.add_row(row.data(), row.size());
  }
  return d;
}

namespace {

Tuple5 tuple_of(const PacketRecord& r) {
  const auto& f = r.pkt.flow;
  return Tuple5{f.src_ip, f.dst_ip, f.src_port, f.dst_port, f.proto};
}

double lat_of(const PacketRecord& r) {
  return static_cast<double>(r.tout.count()) - static_cast<double>(r.tin.count());
}

void ewma_step(double& lat, const PacketRecord& r) {
  lat = (1 - kAlpha) * lat + kAlpha * lat_of(r);
}

struct Counts {
  std::uint64_t count = 0, bytes = 0, drops = 0;
};

Digest r1_digest(const std::unordered_map<Tuple5, Counts, Tuple5Hash>& per) {
  Digest d;
  for (const auto& [t, c] : per) {
    const double row[] = {double(t.sip), double(t.dip), double(t.sport), double(t.dport),
                          double(t.proto), double(c.count), double(c.bytes)};
    d.add_row(row, 7);
  }
  return d;
}

}  // namespace

Reference compute_reference(const std::vector<PacketRecord>& records,
                            const Schedule& schedule, bool full_program) {
  Reference ref;
  std::unordered_map<Tuple5, Counts, Tuple5Hash> per;
  std::unordered_map<std::uint64_t, std::uint64_t> by_src_len;  // R6
  const std::size_t nw = schedule.windows.size();
  ref.window_ewma.resize(nw);
  ref.window_drops.assign(nw, 0);
  ref.window_rows.resize(nw);
  std::size_t next_pull = 0;
  for (std::size_t i = 0; i <= records.size(); ++i) {
    while (next_pull < schedule.pull_records.size() &&
           schedule.pull_records[next_pull] == i) {
      ref.r1_prefix.push_back(r1_digest(per));
      ++next_pull;
    }
    if (i == records.size()) break;
    const PacketRecord& r = records[i];
    const Tuple5 t = tuple_of(r);
    Counts& c = per[t];
    ++c.count;
    c.bytes += r.pkt.pkt_len;
    if (r.dropped()) ++c.drops;
    if (full_program) {
      if (!r.dropped()) {
        auto [it, fresh] = ref.r4.try_emplace(t, 0.0);
        ewma_step(it->second, r);
      }
      if (r.pkt.is_tcp()) {
        NonMt& nm = ref.r5[t];
        const double seq = static_cast<double>(r.pkt.tcp_seq);
        if (nm.maxseq > seq) nm.count += 1;
        nm.maxseq = std::max(nm.maxseq, seq);
      }
      const std::uint64_t bucket = static_cast<std::uint64_t>(
          static_cast<double>(r.pkt.pkt_len) / 256.0);
      ++by_src_len[(std::uint64_t{r.pkt.flow.src_ip} << 8) | bucket];
    }
    for (std::size_t w = 0; w < nw; ++w) {
      const TenantWindow& win = schedule.windows[w];
      if (i < win.first_record || i >= win.end_record) continue;
      if (r.dropped()) {
        ++ref.window_drops[w];
        const double row[] = {double(r.pkt.flow.src_ip), double(r.pkt.flow.dst_port)};
        ref.window_rows[w].add_row(row, 2);
      } else {
        auto [it, fresh] = ref.window_ewma[w].try_emplace(t, 0.0);
        ewma_step(it->second, r);
      }
    }
  }
  ref.r1 = r1_digest(per);
  for (const auto& [t, c] : per) {
    if (c.drops == 0) continue;
    const double r2[] = {double(t.sip), double(t.dip), double(t.sport), double(t.dport),
                         double(t.proto), double(c.drops)};
    ref.r2.add_row(r2, 6);
    const double r3[] = {double(t.sip), double(t.dip), double(t.sport), double(t.dport),
                         double(t.proto), double(c.drops) / double(c.count)};
    ref.r3.add_row(r3, 6);
  }
  for (const auto& [k, n] : by_src_len) {
    const double row[] = {double(k >> 8), double(k & 0xff), double(n)};
    ref.r6.add_row(row, 3);
  }
  return ref;
}

}  // namespace perfbench
