// Back-of-the-envelope hardware models from §3.3 and §4.
//
// The paper's arithmetic, reproduced as code so the benches can regenerate
// its headline claims:
//   - SRAM density ~7000 Kb/mm^2 [13], smallest switching chips ~200 mm^2
//     [20]  =>  a 32-Mbit cache costs < 2.5% additional die area;
//   - storing all 3.8 M CAIDA flows on-chip would need ~486 Mbit => ~38%;
//   - a 1 GHz pipeline moving 64 B packets at 30% utilization with 850 B
//     average packets processes ~22.6 M packets/s, so an eviction fraction
//     of 3.55% is ~802 K backing-store writes/s — within the few hundred
//     thousand ops/s/core of memcached/Redis-class stores [1, 5, 10, 24].
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

#include "common/error.hpp"

namespace perfq::analysis {

struct AreaModel {
  double sram_kbit_per_mm2 = 7000.0;  ///< [13] ARM SRAM density
  double die_mm2 = 200.0;             ///< [20] smallest switching chips

  [[nodiscard]] double sram_mm2(double mbits) const {
    return mbits * 1024.0 / sram_kbit_per_mm2;
  }
  /// Fraction of the die one cache of `mbits` occupies.
  [[nodiscard]] double area_fraction(double mbits) const {
    return sram_mm2(mbits) / die_mm2;
  }
  /// Mbits needed to hold `flows` pairs at `bits_per_pair`.
  [[nodiscard]] static double required_mbits(std::uint64_t flows,
                                             int bits_per_pair) {
    return static_cast<double>(flows) * static_cast<double>(bits_per_pair) /
           (1024.0 * 1024.0);
  }
};

struct DatacenterWorkloadModel {
  double clock_ghz = 1.0;             ///< pipeline: one packet per ns [17]
  std::uint32_t min_pkt_bytes = 64;   ///< line-rate definition
  std::uint32_t avg_pkt_bytes = 850;  ///< Benson et al. [16]
  double utilization = 0.30;          ///< ditto

  /// Average packets per second the switch actually processes: the paper's
  /// "22.6M average-sized packets per second".
  [[nodiscard]] double avg_pkts_per_sec() const {
    const double line_bytes_per_sec =
        clock_ghz * 1e9 * static_cast<double>(min_pkt_bytes);
    return line_bytes_per_sec * utilization /
           static_cast<double>(avg_pkt_bytes);
  }

  /// Backing-store write rate for a given eviction fraction (Fig. 5 right
  /// panel's y-axis).
  [[nodiscard]] double evictions_per_sec(double eviction_fraction) const {
    return avg_pkts_per_sec() * eviction_fraction;
  }
};

/// Admission pricing for a multi-tenant query service: each attached query's
/// cache geometry is priced as a fraction of switch die area via AreaModel,
/// and attach is admitted only while the running total stays within
/// `max_die_fraction` — the paper's "< 2.5% additional die area" budget
/// applied per box instead of per query. Pure arithmetic; the service layer
/// owns when to charge()/release().
struct AdmissionBudget {
  AreaModel area;
  double max_die_fraction = 0.025;  ///< §3.3: one 32-Mbit cache's budget
  double used_die_fraction = 0.0;

  /// On-chip cost of one cache slot: key bits plus one 64-bit word per
  /// aggregation state dimension (matches the bench's kBitsPerPair=128 for
  /// 8-byte keys with one 64-bit value).
  [[nodiscard]] static double bits_per_pair(int key_bytes,
                                            std::size_t state_dims) {
    return static_cast<double>(key_bytes) * 8.0 +
           64.0 * static_cast<double>(state_dims);
  }
  /// Die fraction a cache of `slots` entries at `bits_per_pair` costs.
  [[nodiscard]] double price(std::uint64_t slots, double bpp) const {
    return area.area_fraction(static_cast<double>(slots) * bpp /
                              (1024.0 * 1024.0));
  }
  /// Whether charging `fraction` more would stay within budget. Exact-at-
  /// budget admits; the epsilon absorbs float noise from summed prices.
  [[nodiscard]] bool would_admit(double fraction) const {
    return used_die_fraction + fraction <= max_die_fraction + 1e-12;
  }
  /// The one admission decision: price a cache of `slots` entries holding
  /// `key_bytes` keys with `state_dims` state words, and return that die
  /// fraction if it fits the budget. Otherwise a ConfigError
  /// "<prefix> exceeds the die-area budget (used% + price% > max%)". Does
  /// not charge.
  [[nodiscard]] double admit(std::uint64_t slots, int key_bytes,
                             std::size_t state_dims,
                             const std::string& prefix) const {
    const double fraction = price(slots, bits_per_pair(key_bytes, state_dims));
    if (!would_admit(fraction)) {
      char frac[96];
      std::snprintf(frac, sizeof(frac), "%.4f%% + %.4f%% > %.4f%%",
                    used_die_fraction * 100.0, fraction * 100.0,
                    max_die_fraction * 100.0);
      throw ConfigError{prefix + " exceeds the die-area budget (" + frac + ")"};
    }
    return fraction;
  }
  void charge(double fraction) { used_die_fraction += fraction; }
  void release(double fraction) {
    used_die_fraction -= fraction;
    if (used_die_fraction < 0.0) used_die_fraction = 0.0;
  }
};

/// Published single-core op rates for scale-out stores (paper's refs [1, 5,
/// 10, 24]); the backing-store feasibility argument compares against these.
struct BackingStoreCapacity {
  double memcached_ops_per_core = 300'000.0;
  double redis_ops_per_core = 150'000.0;

  [[nodiscard]] double cores_needed(double writes_per_sec) const {
    return writes_per_sec / redis_ops_per_core;  // conservative choice
  }
};

}  // namespace perfq::analysis
