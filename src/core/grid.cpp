#include "core/grid.hpp"

#include <cassert>
#include <map>

#include "ckpt/store.hpp"

namespace integrade::core {

namespace {

/// GUPA as a CORBA object: LRMs push pattern uploads; anyone may ask for
/// forecasts over the wire (the local GRM short-circuits in-process).
class GupaServant final : public orb::SkeletonBase {
 public:
  explicit GupaServant(lupa::Gupa& gupa) {
    register_op<protocol::UsagePatternUpload, cdr::Empty>(
        "upload_pattern",
        [&gupa](const protocol::UsagePatternUpload& upload) -> Result<cdr::Empty> {
          gupa.upload(upload);
          return cdr::Empty{};
        });
    register_op<protocol::ForecastRequest, protocol::ForecastReply>(
        "forecast", [&gupa](const protocol::ForecastRequest& request)
                        -> Result<protocol::ForecastReply> {
          return gupa.forecast(request);
        });
  }
  [[nodiscard]] const char* type_id() const override {
    return "IDL:integrade/Gupa:1.0";
  }
};

/// Checkpoint repository as a CORBA object: LRMs store sequential-task
/// checkpoints here (BSP checkpoints are stored by the coordinator, which
/// is co-located with the repository).
class CheckpointServant final : public orb::SkeletonBase {
 public:
  explicit CheckpointServant(ckpt::CheckpointRepository& repository) {
    register_op<ckpt::Checkpoint, cdr::Empty>(
        "store_checkpoint",
        [&repository](const ckpt::Checkpoint& checkpoint) -> Result<cdr::Empty> {
          // A version regression means a stale writer raced a recovery;
          // dropping it is the correct resolution.
          (void)repository.store(checkpoint);
          return cdr::Empty{};
        });
  }
  [[nodiscard]] const char* type_id() const override {
    return "IDL:integrade/CheckpointRepository:1.0";
  }
};

}  // namespace

Cluster::Cluster(Grid& grid, ClusterId id, ClusterConfig config)
    : grid_(grid), id_(id), config_(std::move(config)) {
  assert(!config_.segments.empty());
  for (const auto& segment : config_.segments) {
    segment_ids_.push_back(grid_.network().add_segment(segment));
  }

  // --- Cluster Manager node ---
  const auto manager_addr = grid_.allocate_endpoint(segment_ids_.front());
  manager_orb_ = std::make_unique<orb::Orb>(manager_addr, grid_.transport(),
                                            &grid_.engine(), config_.orb);
  manager_orb_->set_tracer(&grid_.tracer());
  gupa_ref_ = manager_orb_->activate(std::make_shared<GupaServant>(gupa_));
  ckpt_ref_ =
      manager_orb_->activate(std::make_shared<CheckpointServant>(repository_));
  // Checkpoint data plane (optional): the repository grows an embedded
  // content-addressed chunk store, exposed over the wire so provider agents
  // can offer/put/get chunks against it. Nothing here runs when disabled —
  // no servant, no shifted object keys, no wire bytes.
  ckpt::ChunkStore* ckpt_store = nullptr;
  if (config_.ckpt.enabled) {
    ckpt_store = &repository_.enable_data_plane();
    ckpt_store_ref_ = manager_orb_->activate(
        std::make_shared<ckpt::StoreServant>(*ckpt_store));
  }
  grm_ = std::make_unique<grm::Grm>(grid_.engine(), *manager_orb_, id_,
                                    grid_.fork_rng(), config_.grm);
  grm_->set_sched(config_.sched);
  grm_->start(&gupa_, &repository_, &grid_.network());
  coordinator_ = std::make_unique<bsp::BspCoordinator>(
      grid_.engine(), *manager_orb_, *grm_, &repository_, &grid_.network(),
      config_.bsp);
  coordinator_->start();

  // --- Warm-standby Cluster Manager (optional) ---
  // Runs from the start on its own node with an empty Trader. It shares
  // the co-located GUPA/checkpoint services (they live on the primary's
  // node and have their own liveness); its state rebuilds from LRM
  // re-announcements after a failover — the paper's information update
  // protocol makes that state soft by construction.
  if (config_.standby_grm) {
    const auto standby_addr = grid_.allocate_endpoint(segment_ids_.front());
    standby_orb_ = std::make_unique<orb::Orb>(standby_addr, grid_.transport(),
                                              &grid_.engine(), config_.orb);
    standby_orb_->set_tracer(&grid_.tracer());
    standby_grm_ = std::make_unique<grm::Grm>(grid_.engine(), *standby_orb_, id_,
                                              grid_.fork_rng(), config_.grm);
    standby_grm_->set_sched(config_.sched);
    standby_grm_->start(&gupa_, &repository_, &grid_.network());
  }

  // --- Control-plane snapshots (optional; requires the standby) ---
  // The primary periodically captures Trader/GRM/GUPA/ORB-dedup sections
  // and ships them to a SnapshotStore on the standby's node; the standby
  // installs them dormant and wakes the image only at promotion (first
  // status frame or task resync it receives). The GUPA section is captured
  // for warm-start files but has no loader here: primary and standby share
  // the cluster's one GUPA object.
  if (config_.snapshot.enabled && standby_grm_) {
    snapshot_store_ =
        std::make_unique<snapshot::SnapshotStore>(grid_.engine(), *standby_orb_);
    grm::Grm* standby = standby_grm_.get();
    orb::Orb* standby_orb = standby_orb_.get();
    snapshot_store_->register_loader(
        "trader", [standby](std::uint32_t version, cdr::Reader& r) {
          return standby->trader().load(version, r);
        });
    snapshot_store_->register_loader(
        "grm", [standby](std::uint32_t version, cdr::Reader& r) {
          return standby->load(version, r);
        });
    snapshot_store_->register_loader(
        "orb_dedup", [standby_orb](std::uint32_t version, cdr::Reader& r) {
          return standby_orb->load_dedup(version, r);
        });

    snapshot_coordinator_ = std::make_unique<snapshot::SnapshotCoordinator>(
        grid_.engine(), *manager_orb_, config_.snapshot);
    grm::Grm* primary = grm_.get();
    orb::Orb* manager_orb = manager_orb_.get();
    lupa::Gupa* gupa = &gupa_;
    snapshot_coordinator_->add_provider(
        {"trader", services::Trader::kSnapshotVersion, [primary] {
           cdr::Writer w;
           primary->trader().save(w);
           return w.take_buffer();
         }});
    snapshot_coordinator_->add_provider(
        {"grm", primary->snapshot_version(), [primary] {
           cdr::Writer w;
           primary->save(w);
           return w.take_buffer();
         }});
    snapshot_coordinator_->add_provider(
        {"gupa", lupa::Gupa::kSnapshotVersion, [gupa] {
           cdr::Writer w;
           gupa->save(w);
           return w.take_buffer();
         }});
    snapshot_coordinator_->add_provider(
        {"orb_dedup", orb::Orb::kDedupSnapshotVersion, [manager_orb] {
           cdr::Writer w;
           manager_orb->save_dedup(w);
           return w.take_buffer();
         }});
    snapshot_coordinator_->set_target(snapshot_store_->ref());
    snapshot_coordinator_->start();
  }

  // --- User node ---
  const auto user_addr = grid_.allocate_endpoint(segment_ids_.front());
  user_orb_ = std::make_unique<orb::Orb>(user_addr, grid_.transport(),
                                         &grid_.engine(), config_.orb);
  user_orb_->set_tracer(&grid_.tracer());
  asct_ = std::make_unique<asct::Asct>(grid_.engine(), *user_orb_);

  // Publish the cluster's well-known objects in the grid Naming service so
  // any component can bootstrap by name (the CosNaming pattern).
  const std::string prefix = "clusters/" + config_.name;
  grid_.naming().rebind(prefix + "/grm", grm_->ref());
  grid_.naming().rebind(prefix + "/gupa", gupa_ref_);
  grid_.naming().rebind(prefix + "/checkpoints", ckpt_ref_);
  grid_.naming().rebind(prefix + "/asct", asct_->ref());

  // --- Resource provider / dedicated nodes ---
  NodeId next_node{id_.value * 1'000'000 + 1};
  for (const auto& node_config : config_.nodes) {
    auto worker = std::make_unique<Worker>();
    auto spec = node_config.spec;
    if (spec.hostname.empty()) {
      spec.hostname =
          config_.name + "-n" + std::to_string(next_node.value % 1'000'000);
    }
    worker->machine = std::make_unique<node::Machine>(next_node, spec);
    next_node = NodeId(next_node.value + 1);

    const auto segment =
        segment_ids_.at(static_cast<std::size_t>(node_config.segment));
    const auto addr = grid_.allocate_endpoint(segment);
    worker->orb = std::make_unique<orb::Orb>(addr, grid_.transport(),
                                             &grid_.engine(), config_.orb);
    worker->orb->set_tracer(&grid_.tracer());

    lrm::LrmOptions lrm_options = config_.lrm;
    if (config_.batch_heartbeats) {
      // The per-segment batcher owns the heartbeat cadence and the LUPA
      // sampling tick; the LRM arms neither timer itself.
      lrm_options.batched_updates = true;
      lrm_options.lupa_options.external_ticks = true;
    }
    ncc::SharingPolicy policy = node_config.policy;
    if (node_config.dedicated) {
      lrm_options.run_lupa = false;  // paper: "LUPA is not executed in
                                     // dedicated nodes"
      policy = ncc::dedicated_policy();
    } else {
      worker->owner = std::make_unique<node::OwnerWorkload>(
          grid_.engine(), *worker->machine, node_config.profile,
          grid_.fork_rng());
      worker->owner->start();
    }
    worker->lrm = std::make_unique<lrm::Lrm>(grid_.engine(), *worker->orb,
                                             *worker->machine,
                                             ncc::Ncc(policy),
                                             grid_.fork_rng(), lrm_options);
    worker->lrm->start(grm_->ref(), gupa_ref_, ckpt_ref_, &grid_.network());
    if (standby_grm_) worker->lrm->set_standby_grm(standby_grm_->ref());
    if (config_.ckpt.enabled) {
      worker->ckpt_agent = std::make_unique<ckpt::CkptAgent>(
          grid_.engine(), *worker->orb, config_.ckpt);
      worker->ckpt_agent->set_repository(ckpt_store_ref_);
      worker->ckpt_agent->start();
      worker->lrm->set_ckpt_agent(worker->ckpt_agent.get());
    }
    workers_.push_back(std::move(worker));
  }

  // Route BSP checkpoints through the data plane now that every provider's
  // agent exists (the resolver map is captured by value and the agent refs
  // keep their object keys across crash/restart cycles).
  if (config_.ckpt.enabled) {
    auto agents = std::make_shared<std::map<NodeId, orb::ObjectRef>>();
    for (const auto& worker : workers_) {
      if (worker->ckpt_agent) {
        (*agents)[worker->machine->id()] = worker->ckpt_agent->ref();
      }
    }
    coordinator_->set_data_plane(
        ckpt_store, ckpt_store_ref_,
        [agents](NodeId node) {
          auto it = agents->find(node);
          return it == agents->end() ? orb::ObjectRef{} : it->second;
        },
        config_.ckpt.replicate_k);
    // The preemption path replicates a victim's final checkpoint to peer
    // stores the GRM picks from this list.
    std::vector<std::pair<NodeId, orb::ObjectRef>> agent_refs(agents->begin(),
                                                              agents->end());
    grm_->set_ckpt_agents(agent_refs);
    if (standby_grm_) standby_grm_->set_ckpt_agents(agent_refs);
  }

  // --- Per-segment heartbeat batchers ---
  // Built after every worker so enabling batching never shifts worker
  // endpoint addresses (fault-injection configs address nodes by endpoint).
  // Segments with no provider nodes get no batcher. The first frame of each
  // segment is staggered deterministically — period·(s+1)/(S+1) — so frames
  // spread across the period without consuming any grid randomness.
  if (config_.batch_heartbeats) {
    const std::size_t num_segments = segment_ids_.size();
    batchers_.resize(num_segments);
    for (std::size_t s = 0; s < num_segments; ++s) {
      std::vector<lrm::Lrm*> members;
      for (std::size_t i = 0; i < workers_.size(); ++i) {
        if (static_cast<std::size_t>(config_.nodes[i].segment) == s) {
          members.push_back(workers_[i]->lrm.get());
        }
      }
      if (members.empty()) continue;
      const auto segment = segment_ids_[s];
      const auto addr = grid_.allocate_endpoint(segment);
      SegmentBatcher& slot = batchers_[s];
      slot.orb = std::make_unique<orb::Orb>(addr, grid_.transport(),
                                            &grid_.engine(), config_.orb);
      slot.orb->set_tracer(&grid_.tracer());
      lrm::BatcherOptions batcher_options;
      batcher_options.update_period = config_.lrm.update_period;
      batcher_options.initial_stagger =
          config_.lrm.update_period * static_cast<SimDuration>(s + 1) /
          static_cast<SimDuration>(num_segments + 1);
      batcher_options.drive_lupa = config_.lrm.run_lupa;
      batcher_options.lupa_sample_interval =
          config_.lrm.lupa_options.sample_interval;
      batcher_options.reliable = config_.lrm.reliable_updates;
      batcher_options.grm_failure_threshold = config_.lrm.grm_failure_threshold;
      slot.batcher = std::make_unique<lrm::HeartbeatBatcher>(
          grid_.engine(), *slot.orb, segment, batcher_options);
      for (lrm::Lrm* member : members) slot.batcher->add(member);
      slot.batcher->start(grm_->ref(), standby_grm_ ? standby_grm_->ref()
                                                    : orb::ObjectRef{});
    }
  }

  // --- MetricsHub registrations ---
  // Every component's private registry becomes visible under a stable
  // "component/instance" name; the per-LRM sources also derive the
  // harvest duty cycle at snapshot time. The names are recorded so the
  // destructor can deregister them.
  obs::MetricsHub& hub = grid_.metrics_hub();
  auto add_registry = [&](std::string name, const MetricRegistry* registry) {
    hub.add_registry(name, registry);
    hub_names_.push_back(std::move(name));
  };
  add_registry("grm/" + config_.name, &grm_->metrics());
  if (standby_grm_) {
    add_registry("grm-standby/" + config_.name, &standby_grm_->metrics());
  }
  add_registry("asct/" + config_.name, &asct_->metrics());
  add_registry("orb/" + config_.name + "/manager", &manager_orb_->metrics());
  if (standby_orb_) {
    add_registry("orb/" + config_.name + "/standby", &standby_orb_->metrics());
  }
  if (snapshot_coordinator_) {
    add_registry("snapshot/" + config_.name + "/coordinator",
                 &snapshot_coordinator_->metrics());
    add_registry("snapshot/" + config_.name + "/store",
                 &snapshot_store_->metrics());
  }
  add_registry("orb/" + config_.name + "/user", &user_orb_->metrics());
  for (std::size_t s = 0; s < batchers_.size(); ++s) {
    if (!batchers_[s].batcher) continue;
    add_registry("batcher/" + config_.name + "-s" + std::to_string(s),
                 &batchers_[s].batcher->metrics());
  }
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    lrm::Lrm* lrm = workers_[i]->lrm.get();
    std::string name =
        "lrm/" + config_.name + "-n" + std::to_string(i + 1);
    hub.add_source(name, [lrm](MetricRegistry& out) {
      out = lrm->metrics();
      out.summary("harvest_duty_cycle").observe(lrm->harvest_duty_cycle());
    });
    hub_names_.push_back(std::move(name));
  }
  if (config_.ckpt.enabled) {
    ckpt::ChunkStore* repo_store = repository_.data_plane();
    std::string repo_name = "ckpt/" + config_.name + "/repository";
    hub.add_source(repo_name, [repo_store](MetricRegistry& out) {
      repo_store->fill_metrics(out);
    });
    hub_names_.push_back(std::move(repo_name));
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      ckpt::CkptAgent* agent = workers_[i]->ckpt_agent.get();
      if (agent == nullptr) continue;
      std::string name =
          "ckpt/" + config_.name + "-n" + std::to_string(i + 1);
      hub.add_source(name, [agent](MetricRegistry& out) {
        out = agent->metrics();
        agent->store().fill_metrics(out);
      });
      hub_names_.push_back(std::move(name));
    }
  }
}

Cluster::~Cluster() {
  for (const std::string& name : hub_names_) {
    grid_.metrics_hub().remove(name);
  }
  // Stop protocol actors before their ORBs die underneath them. Batchers
  // first: their ticks dereference member LRMs.
  for (auto& slot : batchers_) {
    if (slot.batcher) slot.batcher->stop();
  }
  for (auto& worker : workers_) {
    if (worker->owner) worker->owner->stop();
    worker->lrm->stop();
  }
  if (snapshot_coordinator_) snapshot_coordinator_->stop();
  coordinator_->stop();
  if (standby_grm_) standby_grm_->stop();
  grm_->stop();
}

MInstr Cluster::total_work_done() const {
  MInstr total = 0;
  for (const auto& worker : workers_) total += worker->lrm->total_work_done();
  return total;
}

Grid::Grid(std::uint64_t seed, GridOptions options)
    : rng_(seed), network_(engine_, Rng(seed ^ 0x9e3779b97f4a7c15ULL)),
      transport_(network_) {
  obs_.hub.add_source("sim/engine", [this](MetricRegistry& out) {
    out.counter("sim.events").add(engine_.events_fired());
  });
  if (!options.realm_passphrase.empty()) {
    secure_transport_ = std::make_unique<security::SecureTransport>(
        transport_, security::Key::from_passphrase(options.realm_passphrase));
  }
}

Grid::~Grid() = default;

orb::Transport& Grid::transport() {
  if (secure_transport_) return *secure_transport_;
  return transport_;
}

Cluster& Grid::add_cluster(ClusterConfig config) {
  const ClusterId id(clusters_.size() + 1);
  clusters_.push_back(std::make_unique<Cluster>(*this, id, std::move(config)));
  return *clusters_.back();
}

void Grid::connect(Cluster& parent, Cluster& child) {
  child.grm().set_parent(parent.grm_ref());
  parent.grm().add_child(child.grm_ref());
}

void Grid::run_for(SimDuration d) {
  assert(d >= 0);
  const SimTime now = engine_.now();
  // Saturating add: a duration near the SimDuration max must clamp to
  // kTimeNever, not wrap negative and return without running anything.
  const SimTime deadline = (d > kTimeNever - now) ? kTimeNever : now + d;
  engine_.run_until(deadline);
}

void Grid::run_until(SimTime t) { engine_.run_until(t); }

bool Grid::run_until_app_done(Cluster& cluster, AppId app, SimTime deadline) {
  while (engine_.now() < deadline && !cluster.asct().done(app)) {
    if (!engine_.step(deadline)) break;
  }
  return cluster.asct().done(app);
}

orb::NodeAddress Grid::allocate_endpoint(sim::SegmentId segment) {
  const orb::NodeAddress address = next_endpoint_++;
  network_.attach(address, segment);
  return address;
}

}  // namespace integrade::core
