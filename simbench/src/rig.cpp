#include "rig.hpp"

#include <chrono>
#include <stdexcept>

#include "tcp/recovery_agent.hpp"
#include "trace/samplers.hpp"

namespace simbench {

using namespace tdtcp;
using Clock = std::chrono::steady_clock;

namespace {

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

// Sits in a host's endpoint table in front of one connection and times its
// receive path. Host::UnregisterEndpoint(flow, conn) only removes the sink
// registered for the flow, so the shim removes itself wherever the
// connection would have removed its own entry: when it closes, and before
// it is destroyed.
class Rig::Shim : public PacketSink {
 public:
  Shim(Host* host, TcpConnection* conn, RunSpans& spans)
      : host_(host), conn_(conn), spans_(spans) {
    host_->RegisterEndpoint(conn_->flow(), this);
    conn_->SetClosedCallback([this](CloseReason) { Unregister(); });
  }
  ~Shim() override { Unregister(); }
  Shim(const Shim&) = delete;
  Shim& operator=(const Shim&) = delete;

  void HandlePacket(Packet&& p) override {
    const auto t0 = Clock::now();
    conn_->HandlePacket(std::move(p));
    spans_.rx_s += Since(t0);
    ++spans_.rx_packets;
  }

 private:
  void Unregister() {
    if (!registered_) return;
    host_->UnregisterEndpoint(conn_->flow(), this);
    registered_ = false;
  }

  Host* host_;
  TcpConnection* conn_;
  RunSpans& spans_;
  bool registered_ = true;
};

Rig::Rig(const ExperimentConfig& config, bool shims) : config_(config) {
  const ExperimentConfig& c = config_;
  // The benchmark's workloads need no more of RunExperiment than this.
  if (c.sample_voq || c.sample_reorder || c.trace.enabled ||
      !c.perturb.Empty() || c.recovery == RecoveryMode::kOff ||
      c.workload.variant == Variant::kMptcp) {
    throw std::invalid_argument(
        "Rig: mirrors RunExperiment only without VOQ/reorder sampling, "
        "tracing, schedule perturbation, RecoveryMode::kOff or MPTCP");
  }
  const RackId a = c.workload.src_rack;
  const RackId b = c.workload.dst_rack;

  auto t0 = Clock::now();
  sim_ = std::make_unique<Simulator>();
  sim_->set_batched_dispatch(c.batched_dispatch);
  rng_ = std::make_unique<Random>(c.seed);
  topo_ = std::make_unique<Topology>(*sim_, *rng_, c.topology);
  setup_.topology_s = Since(t0);

  t0 = Clock::now();
  if (c.fabric == FabricKind::kRotor) {
    RotorController::Config rrc;
    rrc.day_length = c.schedule.day_length;
    rrc.night_length = c.schedule.night_length;
    rrc.packet_mode = c.topology.packet_mode;
    rrc.circuit_mode = c.topology.circuit_mode;
    rrc.seed = c.seed;
    rotor_ = std::make_unique<RotorController>(*sim_, rrc, topo_.get());
  } else {
    RdcnController::Config rc;
    rc.schedule = c.schedule;
    rc.packet_mode = c.topology.packet_mode;
    rc.circuit_mode = c.topology.circuit_mode;
    rc.dynamic_voq = c.dynamic_voq;
    rc.seed = c.seed;
    controller_ = std::make_unique<RdcnController>(
        *sim_, rc, std::vector<FabricPort*>{topo_->port(a, b), topo_->port(b, a)},
        std::vector<ToRSwitch*>{topo_->tor(a), topo_->tor(b)});
  }
  setup_.controller_s = Since(t0);

  t0 = Clock::now();
  if (c.recovery == RecoveryMode::kAgent) {
    for (RackId rack = 0; rack < c.topology.num_racks; ++rack) {
      for (std::uint32_t i = 0; i < c.topology.hosts_per_rack; ++i) {
        agents_.push_back(std::make_unique<RecoveryAgent>(
            *sim_, *topo_->host(rack, i), c.recovery_config));
      }
    }
  }
  workload_ = std::make_unique<Workload>(*sim_, *topo_, c.workload);
  if (c.churn.enabled) {
    ChurnConfig cc = c.churn;
    if (cc.inherit_base) {
      cc.base = c.workload.base;
      cc.variant = c.workload.variant;
    }
    churn_ = std::make_unique<ChurnGenerator>(*sim_, *topo_, cc, c.seed);
  }
  if (!c.fault.Empty()) {
    injector_ = std::make_unique<FaultInjector>(*sim_, c.fault, c.seed);
    injector_->Arm(*topo_);
    for (auto& f : workload_->flows()) {
      f.tcp_sender->SetFaultTraceSource(injector_.get());
      f.tcp_receiver->SetFaultTraceSource(injector_.get());
    }
  }
  setup_.workload_s = Since(t0);

  t0 = Clock::now();
  if (rotor_) {
    rotor_->Start();
  } else {
    controller_->Start();
  }
  workload_->Start();
  if (churn_) churn_->Start();
  seq_ = std::make_unique<SeriesSampler>(
      *sim_, c.sample_interval,
      [w = workload_.get()] { return static_cast<double>(w->total_bytes_acked()); });
  seq_->Start();
  // RunExperiment's goodput-window marker: one event, same time and order.
  sim_->ScheduleNoCancel(c.warmup, [] {});
  setup_.start_s = Since(t0);

  if (shims) {
    auto& flows = workload_->flows();
    for (std::uint32_t i = 0; i < flows.size(); ++i) {
      shims_.push_back(std::make_unique<Shim>(topo_->host(a, i),
                                              flows[i].tcp_sender.get(), spans_));
      shims_.push_back(std::make_unique<Shim>(
          topo_->host(b, i), flows[i].tcp_receiver.get(), spans_));
    }
  }
}

Rig::~Rig() = default;

void Rig::RunSlice(SimTime until) {
  const auto t0 = Clock::now();
  sim_->RunUntil(until);
  spans_.run_s += Since(t0);
  ++spans_.slices;
  SampleShape();
}

void Rig::SampleShape() {
  pending_sum_ += static_cast<double>(sim_->pending_events());
  double endpoints = 0, listeners = 0, timers = 0, used = 0;
  for (RackId rack = 0; rack < config_.topology.num_racks; ++rack) {
    for (std::uint32_t i = 0; i < config_.topology.hosts_per_rack; ++i) {
      Host* h = topo_->host(rack, i);
      if (h->num_endpoints() == 0) continue;
      used += 1;
      endpoints += static_cast<double>(h->num_endpoints());
      listeners += static_cast<double>(h->num_tdn_listeners());
      timers += static_cast<double>(h->wheel().armed_count());
    }
  }
  if (used > 0) {
    endpoints_sum_ += endpoints / used;
    listeners_sum_ += listeners / used;
    timers_sum_ += timers / used;
  }
  const auto n = static_cast<double>(spans_.slices);
  spans_.pending_mean = pending_sum_ / n;
  spans_.endpoints_mean = endpoints_sum_ / n;
  spans_.listeners_mean = listeners_sum_ / n;
  spans_.timers_mean = timers_sum_ / n;
}

void Rig::Run(SimTime slice) {
  for (SimTime t = slice; t < config_.duration; t += slice) RunSlice(t);
  RunSlice(config_.duration);
  if (!churn_) return;
  // RunExperiment's drain, stepped identically.
  const SimTime step = config_.churn.slot_timeout + SimTime::Millis(1);
  for (int i = 0; i < 100000 &&
                  !(churn_->stats().opened >= config_.churn.target_connections &&
                    churn_->AllClosed());
       ++i) {
    const SimTime end = sim_->now() + step;
    for (SimTime t = sim_->now() + slice; t < end; t += slice) RunSlice(t);
    RunSlice(end);
  }
}

RigCounters Rig::Counters() {
  RigCounters k;
  const Simulator::Stats ss = sim_->GetStats();
  k.sim_events = ss.events_executed;
  k.sim_batches = ss.batches;
  k.sim_end_ms = sim_->now().micros_f() / 1e3;
  const std::uint32_t racks = config_.topology.num_racks;
  for (RackId r = 0; r < racks; ++r) {
    k.hops += topo_->rack_uplink(r)->delivered() +
              topo_->rack_downlink(r)->delivered();
    for (RackId d = 0; d < racks; ++d) {
      if (d != r) k.hops += topo_->port(r, d)->voq().stats().sojourn_count;
    }
  }
  if (churn_) {
    k.churn_hash = churn_->hash();
  }
  return k;
}

}  // namespace simbench
