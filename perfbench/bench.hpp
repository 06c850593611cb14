// perfbench: the end-to-end benchmark of the resident perfq engine.
//
// One process, one feeding thread, a closed loop: fixed-size bursts of
// pre-serialized frames go through service::QueryService::process_wire_batch,
// the next burst as soon as the previous call returns. A fixed burst schedule
// pulls snapshots, polls metrics() and attaches/detaches tenants; every round
// ends with finish(). Every output is checked against a reference computed
// from the generated records with plain maps (inputs.cpp), never with
// perfq itself. See README.md for the workloads and the metric map.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "kvstore/geometry.hpp"
#include "packet/record.hpp"
#include "packet/wire_view.hpp"
#include "runtime/table.hpp"
#include "trace/config.hpp"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

using perfq::FrameObservation;
using perfq::PacketRecord;

// ---- workloads --------------------------------------------------------------

struct WorkloadSpec {
  std::string name;
  bool sharded = false;       ///< sharded(2) engine, base program R1 only
  perfq::trace::TraceConfig trace;
  std::size_t records = 0;    ///< records per round (trace cap)
  perfq::kv::CacheGeometry geometry;         ///< base program caches
  perfq::kv::CacheGeometry tenant_geometry;  ///< switch tenant cache slice
  std::size_t burst = 256;    ///< frames per process_wire_batch call
  std::size_t pulls = 0;      ///< R1 snapshots per round
  std::size_t tenant_cycles = 0;  ///< attach/detach cycles per round
  std::size_t metrics_every = 64; ///< bursts between metrics() polls
};

/// The named workload, or throws std::invalid_argument.
[[nodiscard]] WorkloadSpec workload_spec(const std::string& name, std::uint64_t seed);

/// The resident program of a workload and the tenants' query text.
[[nodiscard]] const char* base_program(const WorkloadSpec& spec);
extern const char* const kTenantSwitchSource;
extern const char* const kTenantStreamSource;
inline constexpr double kAlpha = 0.125;  ///< EWMA weight (ServiceConfig default)
inline const std::map<std::string, double> kParams{{"alpha", kAlpha}};

// ---- the burst schedule (identical every round) ----------------------------

struct TenantWindow {
  std::size_t attach_burst = 0;  ///< attach before feeding this burst
  std::size_t detach_burst = 0;  ///< detach before feeding this burst
  std::size_t first_record = 0;  ///< [first_record, end_record) folds into it
  std::size_t end_record = 0;
};

struct Schedule {
  std::size_t bursts = 0;
  std::vector<std::size_t> pull_after;       ///< pull after this many bursts
  std::vector<std::size_t> pull_records;     ///< record boundary of each pull
  std::vector<TenantWindow> windows;
};

[[nodiscard]] Schedule make_schedule(const WorkloadSpec& spec, std::size_t records);

// ---- inputs -----------------------------------------------------------------

/// Pre-serialized frames: each frame's headers (the minimum bytes a frame
/// needs to parse; pkt_len rides in the IPv4 total length) in its own 64-byte
/// slot, plus the telemetry sidecar.
struct Inputs {
  std::vector<std::byte> slots;
  std::vector<FrameObservation> frames;
};

[[nodiscard]] Inputs serialize_frames(const std::vector<PacketRecord>& records);

// ---- the independent reference ----------------------------------------------

/// Order-independent digest of a table: row count plus the wrapping sum of a
/// strong hash of each row's bit patterns. Equal digests = equal row sets.
struct Digest {
  std::uint64_t rows = 0;
  std::uint64_t sum = 0;
  void add_row(const double* values, std::size_t n);
  friend bool operator==(const Digest&, const Digest&) = default;
};

/// A 5-tuple as the reference keys it.
struct Tuple5 {
  std::uint32_t sip = 0, dip = 0;
  std::uint16_t sport = 0, dport = 0;
  std::uint8_t proto = 0;
  friend bool operator==(const Tuple5&, const Tuple5&) = default;
};
struct Tuple5Hash {
  std::size_t operator()(const Tuple5& t) const;
};

struct NonMt {
  double maxseq = 0.0;
  double count = 0.0;
};

struct Reference {
  // Final tables of the base program (whole round).
  Digest r1, r2, r3, r6;
  std::unordered_map<Tuple5, double, Tuple5Hash> r4;    ///< sequential EWMA
  std::unordered_map<Tuple5, NonMt, Tuple5Hash> r5;     ///< sequential nonmt
  // R1 at every pull's record boundary.
  std::vector<Digest> r1_prefix;
  // Per tenant window: the switch tenant's EWMA, the stream tenant's rows.
  std::vector<std::unordered_map<Tuple5, double, Tuple5Hash>> window_ewma;
  std::vector<std::uint64_t> window_drops;
  std::vector<Digest> window_rows;  ///< order-independent digest of (srcip, dstport) rows
};

[[nodiscard]] Reference compute_reference(const std::vector<PacketRecord>& records,
                                          const Schedule& schedule, bool full_program);

/// Relative tolerance for EWMA values: the engine's exact merge composes the
/// affine update across evictions and can differ from the sequential fold at
/// the last few ULPs.
inline constexpr double kEwmaRelTol = 1e-9;
[[nodiscard]] bool ewma_close(double want, double got);

/// Digest of a result table over the named columns, in that order.
[[nodiscard]] Digest digest_table(const perfq::runtime::ResultTable& table,
                                  const std::vector<std::string>& columns);

}  // namespace perfbench
