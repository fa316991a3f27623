#include "core/workloads.hpp"

namespace integrade::core {

namespace {

NodeConfig make_node(const node::WeeklyProfile& profile, Rng& rng,
                     int segment = 0) {
  NodeConfig config;
  config.spec.cpu_mips = static_cast<Mips>(rng.uniform_int(500, 2000));
  config.spec.ram = rng.uniform_int(128, 512) * kMiB;
  config.spec.disk = rng.uniform_int(10, 60) * kGiB;
  config.profile = profile;
  config.segment = segment;
  return config;
}

}  // namespace

ClusterConfig campus_cluster(const CampusMix& mix, std::uint64_t seed,
                             const std::string& name) {
  Rng rng(seed);
  ClusterConfig config;
  config.name = name;
  config.segments = {sim::SegmentSpec{name + "-lan"}};

  for (int i = 0; i < mix.office_workers; ++i) {
    config.nodes.push_back(make_node(node::office_worker_profile(), rng));
  }
  for (int i = 0; i < mix.lab_machines; ++i) {
    config.nodes.push_back(make_node(node::student_lab_profile(), rng));
  }
  for (int i = 0; i < mix.nocturnal; ++i) {
    config.nodes.push_back(make_node(node::nocturnal_profile(), rng));
  }
  for (int i = 0; i < mix.mostly_idle; ++i) {
    config.nodes.push_back(make_node(node::mostly_idle_profile(), rng));
  }
  for (int i = 0; i < mix.busy_servers; ++i) {
    config.nodes.push_back(make_node(node::busy_server_profile(), rng));
  }
  for (int i = 0; i < mix.dedicated; ++i) {
    NodeConfig dedicated = make_node(node::mostly_idle_profile(), rng);
    dedicated.dedicated = true;
    dedicated.spec.cpu_mips = 2000.0;
    dedicated.spec.ram = 512 * kMiB;
    config.nodes.push_back(dedicated);
  }
  return config;
}

ClusterConfig campus_cluster(int nodes, std::uint64_t seed,
                             const std::string& name) {
  CampusMix mix;
  mix.office_workers = nodes * 2 / 5;
  mix.lab_machines = nodes * 2 / 5;
  mix.nocturnal = nodes / 12;
  mix.busy_servers = nodes / 25;
  mix.mostly_idle =
      nodes - mix.office_workers - mix.lab_machines - mix.nocturnal -
      mix.busy_servers;
  return campus_cluster(mix, seed, name);
}

ClusterConfig segmented_cluster(int groups, int nodes_per_group,
                                std::uint64_t seed, const std::string& name) {
  Rng rng(seed);
  ClusterConfig config;
  config.name = name;
  config.segments.clear();  // replace the default segment entirely
  for (int g = 0; g < groups; ++g) {
    sim::SegmentSpec segment;
    segment.name = name + "-seg" + std::to_string(g);
    segment.bandwidth = 100.0 * 1000 * 1000 / 8;      // 100 Mbps LAN
    segment.uplink_bandwidth = 10.0 * 1000 * 1000 / 8;  // 10 Mbps uplink
    config.segments.push_back(segment);
  }
  for (int g = 0; g < groups; ++g) {
    for (int i = 0; i < nodes_per_group; ++i) {
      config.nodes.push_back(make_node(node::mostly_idle_profile(), rng, g));
    }
  }
  return config;
}

ClusterConfig quiet_cluster(int nodes, std::uint64_t seed, Mips mips,
                            const std::string& name) {
  Rng rng(seed);
  ClusterConfig config;
  config.name = name;
  config.segments = {sim::SegmentSpec{name + "-lan"}};
  for (int i = 0; i < nodes; ++i) {
    NodeConfig node_config;
    node_config.spec.cpu_mips = mips;
    node_config.spec.ram = 256 * kMiB;
    node_config.profile = node::mostly_idle_profile();
    // Keep owners essentially silent: no sessions at all.
    node_config.profile.presence_prob.fill(0.0);
    // Short admission grace: these clusters exist to measure protocol
    // behaviour, not owner-idleness detection.
    node_config.policy.idle_grace = kMinute;
    (void)rng;
    config.nodes.push_back(node_config);
  }
  return config;
}

}  // namespace integrade::core
