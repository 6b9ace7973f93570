// The benchmark's own rig: RunExperiment's wiring rebuilt from the public
// classes (Topology, the rdcn controllers, Workload, ChurnGenerator,
// FaultInjector, SeriesSampler), so the benchmark can put spans around each
// layer's calls without touching the simulator. Built with the same config,
// it executes exactly the events RunExperiment executes; the traced run
// checks that before it reports any per-layer number.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "app/experiment.hpp"
#include "fault/fault_injector.hpp"
#include "rdcn/rotor_controller.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace simbench {

// Host seconds of the set-up spans.
struct SetupSpans {
  double topology_s = 0;    // Simulator + Topology
  double controller_s = 0;  // RdcnController or RotorController
  double workload_s = 0;    // agents, Workload, ChurnGenerator, injector
  double start_s = 0;       // controller, workload and churn Start()
  double total() const { return topology_s + controller_s + workload_s + start_s; }
};

// What one rig run saw, sampled at every slice boundary.
struct RunSpans {
  double run_s = 0;            // host seconds inside Simulator::RunUntil
  std::uint64_t slices = 0;
  double pending_mean = 0;     // Simulator::pending_events()
  double endpoints_mean = 0;   // Host::num_endpoints(), per host in use
  double listeners_mean = 0;   // Host::num_tdn_listeners(), per host in use
  double timers_mean = 0;      // TimerWheel::armed_count(), per host in use
  // The timing shims in front of Workload::flows() endpoints.
  std::uint64_t rx_packets = 0;
  double rx_s = 0;
};

// Layer counters read from the rig's public objects after a run.
struct RigCounters {
  std::uint64_t sim_events = 0;
  std::uint64_t sim_batches = 0;
  std::uint64_t hops = 0;  // link deliveries + fabric VOQ services
  double sim_end_ms = 0;
  std::uint64_t churn_hash = 0;
};

class Rig {
 public:
  // Builds and starts everything, timing each set-up span. With `shims`,
  // every Workload::flows() endpoint gets a timing PacketSink in front of
  // it. Tracing is not wired: the traced ablation prices it separately.
  Rig(const tdtcp::ExperimentConfig& config, bool shims);
  ~Rig();
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  // Runs to the configured duration in `slice`-long RunUntil calls, then
  // drains churn exactly as RunExperiment does.
  void Run(tdtcp::SimTime slice);

  const SetupSpans& setup() const { return setup_; }
  const RunSpans& spans() const { return spans_; }
  RigCounters Counters();

 private:
  class Shim;

  void RunSlice(tdtcp::SimTime until);
  void SampleShape();

  const tdtcp::ExperimentConfig config_;
  SetupSpans setup_;
  RunSpans spans_;
  double pending_sum_ = 0;
  double endpoints_sum_ = 0;
  double listeners_sum_ = 0;
  double timers_sum_ = 0;

  // Declared in RunExperiment's order, so they are torn down in its order.
  std::unique_ptr<tdtcp::Simulator> sim_;
  std::unique_ptr<tdtcp::Random> rng_;
  std::unique_ptr<tdtcp::Topology> topo_;
  std::unique_ptr<tdtcp::RdcnController> controller_;
  std::unique_ptr<tdtcp::RotorController> rotor_;
  std::vector<std::unique_ptr<tdtcp::RecoveryAgent>> agents_;
  std::unique_ptr<tdtcp::Workload> workload_;
  std::unique_ptr<tdtcp::ChurnGenerator> churn_;
  std::unique_ptr<tdtcp::FaultInjector> injector_;
  std::unique_ptr<tdtcp::SeriesSampler> seq_;
  std::vector<std::unique_ptr<Shim>> shims_;
};

}  // namespace simbench
