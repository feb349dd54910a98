//===- perfbench/src/main.cpp - Repository benchmark entry point ----------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
//   perfbench warm --state DIR --config workloads.json
//   perfbench run  --workload NAME --seed N --seconds S --trace 0|1
//                  --state DIR --config workloads.json [--trace-out F]
//
// `warm` trains every victim and synthesizes every stored class program
// into DIR. `run` measures one workload and prints one `metric <name> =
// <value> <unit>` line per metric, then the result as one JSON line:
// {"correct", "attempted", "failed", "metrics"}. It exits 1 when an output
// check failed. perfbench/run.py wraps both.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "support/ArgParse.h"
#include "support/Logging.h"

#include <cstdlib>
#include <iostream>

using namespace oppsla;
using namespace perfbench;

int main(int argc, char **argv) {
  const ArgParse Args(argc, argv);
  const std::string Command =
      Args.positional().empty() ? "" : Args.positional()[0];
  Options O;
  O.StateDir = Args.get("state", "");
  const std::string ConfigPath = Args.get("config", "");
  json::Value Config;
  std::string Error;
  if (O.StateDir.empty() || !json::parseFile(ConfigPath, Config, Error) ||
      !Config.find("workloads")) {
    std::cerr << "usage: perfbench <warm|run> --state DIR --config FILE ..."
              << (Error.empty() ? "" : "\nperfbench: " + Error) << "\n";
    return 2;
  }
  // Victims and programs live in the benchmark's own cache, never in the
  // repository's .oppsla-cache.
  setenv("OPPSLA_CACHE_DIR", (O.StateDir + "/cache").c_str(), 1);
  // Library info lines stay off the output; warnings still go to stderr.
  setLogLevel(LogLevel::Warn);

  const json::Value &All = *Config.find("workloads");
  if (Command == "warm")
    return warmState(O, All);
  if (Command != "run") {
    std::cerr << "perfbench: unknown command '" << Command << "'\n";
    return 2;
  }

  O.Workload = Args.get("workload", "");
  O.Seed = static_cast<uint64_t>(Args.getInt("seed", 1));
  O.Seconds = Args.getDouble("seconds", 10.0);
  O.Trace = Args.getInt("trace", 0) != 0;
  O.TraceOut = Args.get("trace-out", "");
  const json::Value *Knobs = All.find(O.Workload);
  if (!Knobs) {
    std::cerr << "perfbench: unknown workload '" << O.Workload << "'\n";
    return 2;
  }
  O.Knobs = *Knobs;
  O.All = All;

  std::cout << "workload " << O.Workload << " seed " << O.Seed << " seconds "
            << O.Seconds << " trace " << O.Trace << "\n";
  Sheet Out;
  int Rc = 1;
  if (O.Workload == "attack_sweep")
    Rc = runAttackSweep(O, Out);
  else if (O.Workload == "synth")
    Rc = runSynth(O, Out);
  else if (O.Workload == "serve_jobs")
    Rc = runServeJobs(O, Out);
  else
    std::cerr << "perfbench: no implementation of workload '" << O.Workload
              << "'\n";
  if (Rc != 0)
    return Rc;
  // error_pct is 0 on a good run, so it is printed, never gated.
  std::printf("error_pct = %.9g %%\n", Out.errorPct());
  std::cout << Out.json() << std::endl;
  return Out.correct() ? 0 : 1;
}
