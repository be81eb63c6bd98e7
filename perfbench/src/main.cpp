// perfbench: the symcan benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads: serve_hot, serve_cold, design_space, trace_replay (see
// README.md for why each exists and what it should and should not move).
// Inputs are generated from --seed; the library receives only generated
// inputs. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exit status: 0 when every output checked out, 1 on any
// mismatch (the result line is still printed), 2 on bad usage or an
// error, 3 when the run was invalid (no result line).

#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace {

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(value);
      if (!(opt.seconds > 0 && opt.seconds <= 600))
        throw std::invalid_argument("--seconds must lie in (0, 600]");
    } else if (key == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace must be 0 or 1");
      opt.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  try {
    opt = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what()
              << "\nusage: perfbench --workload serve_hot|serve_cold|design_space|trace_replay"
                 " --seed N --seconds S --trace 0|1\n";
    return 2;
  }

  perfbench::Result result;
  try {
    perfbench::set_tracing(opt.trace);
    if (opt.workload == "serve_hot") {
      perfbench::run_serve(opt, true, result);
    } else if (opt.workload == "serve_cold") {
      perfbench::run_serve(opt, false, result);
    } else if (opt.workload == "design_space") {
      perfbench::run_design_space(opt, result);
    } else if (opt.workload == "trace_replay") {
      perfbench::run_trace_replay(opt, result);
    } else {
      std::cerr << "perfbench: unknown workload '" << opt.workload << "'\n";
      return 2;
    }
    if (!opt.trace) {
      result.metric("ok_frac", result.ok_fraction());
      result.metric("peak_rss_mb", perfbench::peak_rss_mib());
    } else {
      perfbench::write_spans(opt.workload + "-seed" + std::to_string(opt.seed));
    }
    std::cout << result.json(opt.trace) << std::endl;
  } catch (const perfbench::InvalidRun& e) {
    std::cerr << "perfbench: invalid run: " << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    return 2;
  }
  return result.failed() == 0 ? 0 : 1;
}
