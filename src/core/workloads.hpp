// Canned cluster/workload configurations shared by the examples and the
// benchmark harness, so every experiment draws from the same population of
// machines the paper's motivating scenario describes (a university
// department: staff workstations, an instructional lab, a few spare and
// dedicated machines).
#pragma once

#include <cstdint>

#include "core/grid.hpp"

namespace integrade::core {

struct CampusMix {
  int office_workers = 20;
  int lab_machines = 20;
  int nocturnal = 4;
  int mostly_idle = 4;
  int busy_servers = 2;
  int dedicated = 0;

  [[nodiscard]] int total() const {
    return office_workers + lab_machines + nocturnal + mostly_idle +
           busy_servers + dedicated;
  }
};

/// A single-segment campus cluster with the given machine-population mix.
/// Machine speeds are drawn deterministically from `seed` in the
/// 500–2000 MIPS range the paper's request example implies.
ClusterConfig campus_cluster(const CampusMix& mix, std::uint64_t seed,
                             const std::string& name = "campus");

/// Convenience: n nodes split across the default mix proportions.
ClusterConfig campus_cluster(int nodes, std::uint64_t seed,
                             const std::string& name = "campus");

/// The paper's topology example: `groups` LAN segments of `nodes_per_group`
/// machines each, 100 Mbps inside a segment, 10 Mbps uplinks between them.
ClusterConfig segmented_cluster(int groups, int nodes_per_group,
                                std::uint64_t seed,
                                const std::string& name = "segmented");

/// All-idle cluster of identical machines — the controlled substrate for
/// protocol microbenchmarks where owner noise would obscure the measurement.
ClusterConfig quiet_cluster(int nodes, std::uint64_t seed, Mips mips = 1000.0,
                            const std::string& name = "quiet");

}  // namespace integrade::core
