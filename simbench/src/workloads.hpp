// The benchmark's three workloads, each an ExperimentConfig derived from the
// seed alone. README.md says why each one exists.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "app/experiment.hpp"

namespace simbench {

enum class WorkloadKind {
  kRotorChurn,         // 8-rack rotor fabric, websearch churn, no faults
  kPaperBulk,          // the paper's two-rack config, 16 long-lived flows
  kFaultedShortflows,  // 2 long flows + short churn on a lossy fabric
};

std::optional<WorkloadKind> WorkloadFromName(std::string_view name);
const char* WorkloadName(WorkloadKind w);

// Observation switches. The end-to-end runs keep both off; the traced run
// turns each on alone to price it.
struct Observe {
  bool invariant_checks = false;
  bool trace = false;
};

tdtcp::ExperimentConfig MakeConfig(WorkloadKind w, std::uint64_t seed,
                                   Observe observe = {});

}  // namespace simbench
