// simbench: times the simulator on one workload and prints one JSON object.
//
//   simbench e2e   --workload NAME --seed N --seconds S
//   simbench trace --workload NAME --seed N --seconds S
//
// `e2e` repeats RunExperiment for S host seconds with the invariant checker
// and tracing off and reports its speed, in reference seconds
// (reference.hpp), beside the simulated outcomes.
// `trace` is the separate traced run: set-up and slice spans from the rig,
// a timing shim on every long-lived endpoint, ablations that price the
// checker and the tracepoints, and one driver per layer. Both modes check
// their own outputs and list every failed check under "failures"; run.py
// turns that into the benchmark's exit status.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "drivers.hpp"
#include "outcome.hpp"
#include "reference.hpp"
#include "rig.hpp"
#include "workloads.hpp"

using namespace simbench;
using tdtcp::ExperimentConfig;
using tdtcp::ExperimentResult;
using tdtcp::SimTime;
using Clock = std::chrono::steady_clock;

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizedBuild = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitizedBuild = true;
#else
constexpr bool kSanitizedBuild = false;
#endif
#else
constexpr bool kSanitizedBuild = false;
#endif

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// The process's own high-water mark. getrusage's ru_maxrss would also count
// the parent's resident set, which Linux carries across exec.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  return kib / 1024.0;
}

// "PeerReset" -> "peer_reset".
std::string Snake(const char* camel) {
  std::string out;
  for (const char* p = camel; *p != '\0'; ++p) {
    if (*p >= 'A' && *p <= 'Z') {
      if (!out.empty()) out += '_';
      out += static_cast<char>(*p - 'A' + 'a');
    } else {
      out += *p;
    }
  }
  return out;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Flat JSON object writer, enough for this program's output.
class Json {
 public:
  Json& Add(const std::string& key, const std::string& raw) {
    body_ += (body_.empty() ? "" : ", ") + Quote(key) + ": " + raw;
    return *this;
  }
  Json& Str(const std::string& key, const std::string& v) { return Add(key, Quote(v)); }
  Json& Number(const std::string& key, double v) { return Add(key, Num(v)); }
  Json& Bool(const std::string& key, bool v) { return Add(key, v ? "true" : "false"); }
  // A metric: {"value": v, "unit": u}.
  Json& Metric(const std::string& key, double v, const char* unit) {
    return Add(key, "{\"value\": " + Num(v) + ", \"unit\": " + Quote(unit) + "}");
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string List(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i ? ", " : "") + Quote(items[i]);
  }
  return out + "]";
}

std::string Provenance(const char* workload, std::uint64_t seed) {
  return Json()
      .Str("build_type", SIMBENCH_BUILD_TYPE)
      .Str("compiler", SIMBENCH_COMPILER)
      .Str("cxx_flags", SIMBENCH_CXX_FLAGS)
      .Number("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)))
      .Str("workload", workload)
      .Number("seed", static_cast<double>(seed))
      .str();
}

std::string OutcomeJson(const Outcome& o) {
  Json j;
  for (const auto& [name, value] : o.Fields()) j.Number(name, value);
  return j.str();
}

// The checks both modes share: the lifecycle contract and exact repetition
// of the simulated outcome. Returns whether `o` failed any of them.
bool CheckOutcome(const Outcome& first, const Outcome& o, const char* what,
                  std::vector<std::string>& failures) {
  const std::size_t before = failures.size();
  if (o.target != 0 &&
      (!o.all_closed || o.opened != o.target || o.closed != o.opened)) {
    failures.push_back(std::string(what) +
                       ": a lifecycle did not reach a definite close reason "
                       "(opened " + std::to_string(o.opened) + ", closed " +
                       std::to_string(o.closed) + ", target " +
                       std::to_string(o.target) + ")");
  }
  for (const std::string& d : Differences(first, o)) {
    failures.push_back(std::string(what) + ": simulated " + d +
                       " differs between runs of one seed");
  }
  return failures.size() != before;
}

struct Timed {
  double host_s = 0;
  Outcome outcome;
  std::uint64_t trace_records = 0;
};

Timed TimeExperiment(const ExperimentConfig& cfg) {
  Timed t;
  const auto t0 = Clock::now();
  const ExperimentResult r = tdtcp::RunExperiment(cfg);
  t.host_s = Since(t0);
  t.outcome = Summarize(cfg, r);
  t.trace_records = r.trace_records;
  return t;
}

// Host seconds of rig set-ups (constructors through Start()). Most take
// tens of microseconds, so a run takes many, spread over its whole length
// so that they see the same machine as the timed runs.
struct SetupSamples {
  std::vector<double> topology_s, workload_s, total_s;

  // `scale` converts host seconds to reference seconds (reference.hpp).
  void Take(const ExperimentConfig& cfg, int reps, double scale = 1.0) {
    for (int i = 0; i < reps; ++i) {
      const Rig rig(cfg, /*shims=*/false);
      topology_s.push_back(rig.setup().topology_s * scale);
      workload_s.push_back(rig.setup().workload_s * scale);
      total_s.push_back(rig.setup().total() * scale);
    }
  }
};

constexpr int kSetupRepsFirst = 101;
constexpr int kSetupRepsPerRun = 25;

const char* Status(const FctPercentile& p) {
  return p.censored ? "censored" : p.supported ? "ok" : "unsupported";
}

std::string NumberList(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + Num(v[i]);
  return out + "]";
}

int RunE2e(WorkloadKind w, std::uint64_t seed, double seconds) {
  const ExperimentConfig cfg = MakeConfig(w, seed);
  std::vector<std::string> failures;
  int failed = 0;

  // Host time is scaled to reference seconds by the reference kernel timed
  // before the first set-ups and after every run (reference.hpp); a timed
  // run uses the mean of the kernel times on either side of it.
  std::vector<double> kernel_s = {ReferenceKernelSeconds()};
  SetupSamples setup;
  setup.Take(cfg, kSetupRepsFirst, kReferenceKernelS / kernel_s.back());

  // The first run warms caches and the allocator; it is checked, not timed.
  const Timed first = TimeExperiment(cfg);
  const Outcome& o = first.outcome;
  failed += CheckOutcome(o, o, "run 1", failures);
  if (o.sim_events == 0 || o.goodput_gbps <= 0) {
    failures.push_back("the run simulated no traffic");
    ++failed;
  }
  kernel_s.push_back(ReferenceKernelSeconds());
  std::vector<double> host_s;
  const auto t0 = Clock::now();
  while (host_s.size() < 3 || Since(t0) < seconds) {
    setup.Take(cfg, kSetupRepsPerRun, kReferenceKernelS / kernel_s.back());
    const Timed t = TimeExperiment(cfg);
    host_s.push_back(t.host_s);
    const std::string label = "run " + std::to_string(host_s.size() + 1);
    failed += CheckOutcome(o, t.outcome, label.c_str(), failures);
    kernel_s.push_back(ReferenceKernelSeconds());
  }

  std::vector<double> sim_rate, sim_rate_raw, life_rate;
  for (std::size_t i = 0; i < host_s.size(); ++i) {
    const double kernel = (kernel_s[i + 1] + kernel_s[i + 2]) / 2;
    const double reference_s = host_s[i] * kReferenceKernelS / kernel;
    sim_rate.push_back(o.sim_span_ms / reference_s);
    sim_rate_raw.push_back(o.sim_span_ms / host_s[i]);
    life_rate.push_back(static_cast<double>(o.closed) / reference_s);
  }
  const Json metrics = Json()
      .Metric("setup_s", Median(setup.total_s), "s")
      .Metric("peak_rss_mb", PeakRssMb(), "MB")
      .Metric("sim_ms_per_s", Median(sim_rate), "ms/s")
      .Metric("goodput_gbps", o.goodput_gbps, "Gbit/s");
  // Printed beside the gated metrics; README.md says why they are not
  // end-to-end metrics of BENCHMARK.json.
  const Json reported = Json()
      .Metric("lifecycles_per_s", Median(life_rate), "1/s")
      .Metric("fct_p50_us", o.fct_p50.reported(), "us")
      .Metric("fct_p99_us", o.fct_p99.reported(), "us")
      .Metric("fct_p999_us", o.fct_p999.reported(), "us")
      .Metric("failed_frac", o.failed_frac, "share")
      .Metric("censored_frac", o.censored_frac, "share")
      .Metric("sim_ms_per_host_s", Median(sim_rate_raw), "ms/s")
      .Metric("reference_kernel_s", Median(kernel_s), "s");
  const Json status = Json()
      .Str("fct_p50_us", Status(o.fct_p50))
      .Str("fct_p99_us", Status(o.fct_p99))
      .Str("fct_p999_us", Status(o.fct_p999));

  std::printf("%s\n", Json()
                          .Str("mode", "e2e")
                          .Add("provenance", Provenance(WorkloadName(w), seed))
                          .Add("metrics", metrics.str())
                          .Add("reported", reported.str())
                          .Add("percentile_status", status.str())
                          .Add("outcome", OutcomeJson(o))
                          .Add("host_s", NumberList(host_s))
                          .Add("kernel_s", NumberList(kernel_s))
                          .Number("attempted", static_cast<double>(host_s.size() + 1))
                          .Number("failed", failed)
                          .Add("failures", List(failures))
                          .str()
                          .c_str());
  return 0;
}

int RunTrace(WorkloadKind w, std::uint64_t seed, double seconds) {
  const ExperimentConfig plain = MakeConfig(w, seed);
  const ExperimentConfig checked = MakeConfig(w, seed, {.invariant_checks = true});
  const ExperimentConfig traced = MakeConfig(w, seed, {.trace = true});
  std::vector<std::string> failures;
  int failed = 0;
  const SimTime slice = SimTime::Millis(1);

  SetupSamples setup;
  setup.Take(plain, kSetupRepsFirst);

  // Untimed warm-up; every later run must repeat its outcome.
  const Outcome first = TimeExperiment(plain).outcome;
  int attempted = 1;
  failed += CheckOutcome(first, first, "warm-up run", failures);

  // Rounds of {plain, checked, traced, rig, rig with shims}, interleaved so
  // host noise hits each variant alike; medians over the rounds.
  std::vector<double> t_plain, t_checked, t_traced, t_rig, t_shim, rx_ns, rx_share;
  std::vector<double> life_rate;  // per reference second, as in `e2e`
  std::uint64_t trace_records = 0;
  RigCounters counters;
  RunSpans shape;
  const auto t0 = Clock::now();
  do {
    setup.Take(plain, kSetupRepsPerRun);
    const double kernel_before = ReferenceKernelSeconds();
    const Timed p = TimeExperiment(plain);
    const double kernel = (kernel_before + ReferenceKernelSeconds()) / 2;
    t_plain.push_back(p.host_s);
    life_rate.push_back(static_cast<double>(p.outcome.closed) /
                        (p.host_s * kReferenceKernelS / kernel));
    failed += CheckOutcome(first, p.outcome, "plain run", failures);

    try {
      const Timed c = TimeExperiment(checked);
      t_checked.push_back(c.host_s);
      failed += CheckOutcome(first, c.outcome, "checked run", failures);
    } catch (const std::exception& e) {
      failures.push_back(std::string("checked run threw: ") + e.what());
      ++failed;
    }

    const Timed t = TimeExperiment(traced);
    t_traced.push_back(t.host_s);
    trace_records = t.trace_records;
    failed += CheckOutcome(first, t.outcome, "traced run", failures);

    {
      Rig rig(plain, /*shims=*/false);
      rig.Run(slice);
      t_rig.push_back(rig.spans().run_s);
      counters = rig.Counters();
      shape = rig.spans();
    }
    {
      Rig rig(plain, /*shims=*/true);
      rig.Run(slice);
      const RunSpans& s = rig.spans();
      t_shim.push_back(s.run_s);
      if (s.rx_packets > 0) {
        rx_ns.push_back(s.rx_s * 1e9 / static_cast<double>(s.rx_packets));
        rx_share.push_back(s.rx_s / s.run_s);
      }
      const RigCounters k = rig.Counters();
      if (k.sim_events != counters.sim_events || k.churn_hash != counters.churn_hash) {
        failures.push_back("the timing shims changed the simulation");
        ++failed;
      }
    }
    attempted += 5;
  } while (Since(t0) < seconds);

  // The rig must have executed exactly what RunExperiment executed, or its
  // per-layer numbers describe some other run.
  const bool rig_matches = counters.sim_events == first.sim_events &&
                           counters.churn_hash == first.churn_hash &&
                           counters.sim_end_ms == first.sim_span_ms;
  if (!rig_matches) {
    failures.push_back("rig does not match RunExperiment (events " +
                       std::to_string(counters.sim_events) + " vs " +
                       std::to_string(first.sim_events) + ", end " +
                       Num(counters.sim_end_ms) + " ms vs " +
                       Num(first.sim_span_ms) + " ms)");
    ++failed;
  }

  constexpr double kBudget = 0.25;
  const auto depth = static_cast<std::size_t>(shape.pending_mean + 0.5);
  const auto endpoints = static_cast<std::size_t>(shape.endpoints_mean + 0.5);
  const auto timers = static_cast<std::size_t>(shape.timers_mean + 0.5);
  const auto listeners = static_cast<std::size_t>(shape.listeners_mean + 0.5);
  const tdtcp::TcpConfig tcp =
      tdtcp::MakeVariantConfig(plain.workload.variant, plain.workload.base);

  const double plain_s = Median(t_plain);
  const Outcome& o = first;
  Json m;
  m.Metric("sim.events", static_cast<double>(counters.sim_events), "count")
      .Metric("sim.events_per_batch",
              counters.sim_batches == 0
                  ? 0
                  : static_cast<double>(counters.sim_events) /
                        static_cast<double>(counters.sim_batches),
              "events/batch")
      .Metric("sim.pending_mean", shape.pending_mean, "count")
      .Metric("sim.ns_per_event", EventNsAtDepth(depth, kBudget), "ns")
      .Metric("sim.wheel_ns_per_arm", WheelNsPerArm(timers, kBudget), "ns")
      .Metric("net.hops", static_cast<double>(counters.hops), "count")
      .Metric("net.ns_per_hop_64B", HopNs(64, kBudget), "ns")
      .Metric("net.ns_per_hop_9000B", HopNs(9000, kBudget), "ns")
      .Metric("net.qdisc_ns_per_pkt.droptail",
              QdiscNs(tdtcp::QdiscKind::kDropTail, kBudget), "ns")
      .Metric("net.qdisc_ns_per_pkt.codel", QdiscNs(tdtcp::QdiscKind::kCodel, kBudget),
              "ns")
      .Metric("net.voq_drops", static_cast<double>(o.voq_drops), "count")
      .Metric("net.voq_sojourn_p99_us", o.voq_sojourn_p99_us, "us")
      .Metric("net.demux_ns", DemuxNs(endpoints, kBudget), "ns")
      .Metric("tcp.rx_ns_per_pkt", Median(rx_ns), "ns")
      .Metric("tcp.rx_share", Median(rx_share), "share")
      .Metric("tcp.retransmissions", static_cast<double>(o.retransmissions), "count")
      .Metric("tcp.timeouts", static_cast<double>(o.timeouts), "count")
      .Metric("tcp.undo_events", static_cast<double>(o.undo_events), "count")
      .Metric("tcp.cross_tdn_exemptions", static_cast<double>(o.cross_tdn_exemptions),
              "count")
      .Metric("tcp.recovery_forced", static_cast<double>(o.recovery_forced), "count")
      .Metric("tcp.recovery_spurious", static_cast<double>(o.recovery_spurious), "count")
      .Metric("rdcn.ns_per_fanout", FanoutNs(listeners, tcp, kBudget), "ns")
      .Metric("rdcn.notifications_dropped", static_cast<double>(o.notifications_dropped),
              "count")
      .Metric("rdcn.stale_notifications", static_cast<double>(o.stale_notifications),
              "count")
      .Metric("app.setup_topology_s", Median(setup.topology_s), "s")
      .Metric("app.setup_workload_s", Median(setup.workload_s), "s")
      .Metric("app.refused", static_cast<double>(o.refused), "count");
  for (std::size_t i = 0; i < tdtcp::kNumCloseReasons; ++i) {
    m.Metric("app.close_" + Snake(tdtcp::CloseReasonName(
                                static_cast<tdtcp::CloseReason>(i))),
             static_cast<double>(o.reasons[i]), "count");
  }
  m.Metric("lifecycles_per_s", Median(life_rate), "1/s")
      .Metric("fct_p50_us", o.fct_p50.reported(), "us")
      .Metric("fct_p99_us", o.fct_p99.reported(), "us")
      .Metric("fct_p999_us", o.fct_p999.reported(), "us")
      .Metric("failed_frac", o.failed_frac, "share")
      .Metric("censored_frac", o.censored_frac, "share")
      .Metric("fault.injected", static_cast<double>(o.faults_injected), "count")
      .Metric("check.share",
              t_checked.empty() ? 0 : 1 - plain_s / Median(t_checked), "share")
      .Metric("trace.share", 1 - plain_s / Median(t_traced), "share")
      .Metric("trace.records", static_cast<double>(trace_records), "count")
      .Metric("bench.trace_overhead", Median(t_shim) / plain_s - 1, "share");

  const Json shape_json = Json()
      .Number("pending_mean", shape.pending_mean)
      .Number("endpoints_per_host", shape.endpoints_mean)
      .Number("timers_per_host", shape.timers_mean)
      .Number("listeners_per_host", shape.listeners_mean)
      .Number("rig_run_s", Median(t_rig))
      .Number("plain_run_s", plain_s);
  std::printf("%s\n", Json()
                          .Str("mode", "trace")
                          .Add("provenance", Provenance(WorkloadName(w), seed))
                          .Add("metrics", m.str())
                          .Add("shape", shape_json.str())
                          .Add("outcome", OutcomeJson(o))
                          .Bool("rig_matches", rig_matches)
                          .Number("attempted", attempted)
                          .Number("failed", failed)
                          .Add("failures", List(failures))
                          .str()
                          .c_str());
  return 0;
}

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s e2e|trace --workload rotor-churn|paper-bulk|"
               "faulted-shortflows --seed N --seconds S\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Usage(argv[0]);
  const std::string mode = argv[1];
  std::optional<WorkloadKind> workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = WorkloadFromName(value);
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else {
      Usage(argv[0]);
    }
  }
  if (!workload || (mode != "e2e" && mode != "trace") || argc % 2 != 0) {
    Usage(argv[0]);
  }
  if (kSanitizedBuild || std::strstr(SIMBENCH_CXX_FLAGS, "-fsanitize") != nullptr) {
    std::fprintf(stderr, "simbench: refusing to time a sanitizer build\n");
    return 3;
  }
  try {
    return mode == "e2e" ? RunE2e(*workload, seed, seconds)
                         : RunTrace(*workload, seed, seconds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "simbench: %s\n", e.what());
    return 1;
  }
}
