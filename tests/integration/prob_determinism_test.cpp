// Acceptance gate: probabilistic analysis results — raw atoms and the
// rendered report bytes — are identical at every worker count. The
// convolution pipeline is pure integer arithmetic, so parallelism and
// the auto-sized tiles are scheduling choices only; this suite (run
// under TSan via the `determinism` label) pins that contract at
// jobs {1, 2, 3, 4} against the serial baseline.

#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <string>

#include "symcan/analysis/presets.hpp"
#include "symcan/analysis/prob_rta.hpp"
#include "symcan/pipeline/stages.hpp"
#include "symcan/workload/powertrain.hpp"

namespace symcan {
namespace {

const int kJobs[] = {1, 2, 3, 4};

KMatrix busy_matrix(std::uint64_t seed) {
  PowertrainConfig wl;
  wl.seed = seed;
  wl.message_count = 28;
  wl.ecu_count = 5;
  wl.target_utilization = 0.60;
  return generate_powertrain(wl);
}

TEST(ProbDeterminism, AtomsIdenticalAcrossJobsAndTiles) {
  const KMatrix km = busy_matrix(7);
  ProbRtaConfig cfg;
  cfg.rta = worst_case_assumptions();
  cfg.fault_ppm = 250'000;
  cfg.stuff_ppm = 900'000;
  cfg.jitter_ppm = 750'000;
  cfg.parallelism = 1;
  const ProbBusResult baseline = analyze_prob(km, cfg);
  for (const int jobs : kJobs) {
    cfg.parallelism = jobs;
    const ProbBusResult got = analyze_prob(km, cfg);
    ASSERT_EQ(got.messages.size(), baseline.messages.size());
    for (std::size_t i = 0; i < baseline.messages.size(); ++i) {
      const std::string tag = baseline.messages[i].det.name + " jobs=" + std::to_string(jobs);
      EXPECT_EQ(got.messages[i].response.atoms(), baseline.messages[i].response.atoms()) << tag;
      EXPECT_EQ(got.messages[i].miss_weight, baseline.messages[i].miss_weight) << tag;
      EXPECT_EQ(got.messages[i].rungs, baseline.messages[i].rungs) << tag;
      EXPECT_EQ(got.messages[i].det.wcrt, baseline.messages[i].det.wcrt) << tag;
    }
  }
}

TEST(ProbDeterminism, RenderedReportByteIdenticalAcrossJobsAndTiles) {
  const KMatrix km = busy_matrix(19);
  const CanRtaConfig rta = worst_case_assumptions();
  pipeline::ProbSpec spec;
  spec.fault_ppm = 100'000;
  spec.stuff_ppm = 850'000;
  spec.jitter_ppm = 500'000;
  spec.jobs = 1;
  std::ostringstream baseline;
  const int rc0 = pipeline::render_prob(km, rta, spec, baseline);
  for (const int jobs : kJobs) {
    spec.jobs = jobs;
    std::ostringstream out;
    const int rc = pipeline::render_prob(km, rta, spec, out);
    EXPECT_EQ(rc, rc0);
    EXPECT_EQ(out.str(), baseline.str()) << "jobs=" << jobs;
  }
}

TEST(ProbDeterminism, SharedCacheDoesNotPerturbParallelResults) {
  // One IncrementalRta shared across repeated parallel fan-outs: cached
  // rung ladders must be bit-identical to fresh solves regardless of
  // which worker populated them.
  const KMatrix km = busy_matrix(31);
  ProbRtaConfig cfg;
  cfg.rta = worst_case_assumptions();
  cfg.fault_ppm = 333'333;
  cfg.parallelism = 4;
  analysis::IncrementalRta rta;
  const ProbBusResult first = rta.analyze_prob(km, cfg);
  const ProbBusResult second = rta.analyze_prob(km, cfg);
  const ProbBusResult fresh = analyze_prob(km, cfg);
  ASSERT_EQ(first.messages.size(), fresh.messages.size());
  for (std::size_t i = 0; i < fresh.messages.size(); ++i) {
    EXPECT_EQ(first.messages[i].response.atoms(), fresh.messages[i].response.atoms());
    EXPECT_EQ(second.messages[i].response.atoms(), fresh.messages[i].response.atoms());
    EXPECT_EQ(first.messages[i].miss_weight, fresh.messages[i].miss_weight);
    EXPECT_EQ(second.messages[i].miss_weight, fresh.messages[i].miss_weight);
  }
}

}  // namespace
}  // namespace symcan
