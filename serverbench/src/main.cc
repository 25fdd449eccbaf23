// serverbench: the end-to-end benchmark of the resident server. See
// README.md for workloads, metrics and how to run it.
//
//   serverbench --workload NAME --seed N --seconds S --trace 0|1
//               --out-dir DIR [--inject-wrong-answer]
//
// Prints build facts as `#` lines, then one JSON result object as the last
// line of standard output. Exits 0 whenever it ran to the end, even when a
// check failed (the result says `"correct": false`); 2 on a usage error, 1
// when the server could not be set up.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "base/failpoint.h"
#include "host_probe.h"
#include "session.h"
#include "trace.h"

#ifndef NDEBUG
#error "serverbench measures optimized builds only (NDEBUG unset)"
#endif
static_assert(!hypo::FailpointsEnabled(),
              "serverbench refuses failpoints-on builds");

namespace serverbench {
namespace {

/// Bytes this process has handed to write() so far (`wchar` of
/// /proc/self/io); -1 where unavailable.
int64_t WrittenBytes() {
  std::ifstream io("/proc/self/io");
  std::string key;
  int64_t value = 0;
  while (io >> key >> value) {
    if (key == "wchar:") return value;
  }
  return -1;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

/// Timings are scaled window by window (README.md, "Timing"). A window is
/// the whole rounds served in kWindowSeconds; every time measured in it is
/// multiplied by HeapProbe::kReferenceUs / (the median probe time over its
/// rounds, one probe run before each round).
constexpr double kWindowSeconds = 0.5;

int RunTimed(const RunOptions& opt, Clock::time_point process_start) {
  auto workload = Workload::Make(opt.workload, opt.seed);
  const std::string data_dir = opt.out_dir + "/data-" + opt.workload + "-" +
                               std::to_string(opt.seed) + "-" +
                               std::to_string(getpid());
  std::filesystem::remove_all(data_dir);
  auto created = hypo::QueryServer::Create(
      workload->program(), workload->ServerOptionsFor(data_dir));
  if (!created.ok()) {
    std::cerr << "server setup failed: " << created.status() << "\n";
    return 1;
  }
  std::unique_ptr<hypo::QueryServer> server = std::move(*created);

  const std::vector<Request> warm_up = workload->WarmUp();
  std::vector<std::string> responses;
  for (const Request& r : warm_up) {
    responses.push_back(ServeLines(server.get(), r.SessionText()));
  }
  // One cold set-up, as measured: unlike the timings below, it is not
  // scaled.
  const double setup_s = SecondsSince(process_start);
  StreamChecker checker(*workload, opt.inject_wrong_answer);
  for (size_t i = 0; i < warm_up.size(); ++i) {
    checker.Check(warm_up[i], ParseOutcome(warm_up[i], responses[i]));
  }

  // Timed phase: whole rounds, one request per RunSession call, until the
  // run length is reached. Each round is checked after it has been served;
  // requests_per_s counts only the time spent serving. The raw_* series
  // hold the times as measured, the others the scaled times.
  std::vector<double> query_us, mutation_us, raw_query_us, raw_mutation_us;
  std::vector<double> window_query_us, window_mutation_us, all_probe_us;
  double serving_s = 0, raw_serving_s = 0, window_serving_s = 0;
  int64_t windows = 0;
  HeapProbe probe;
  std::vector<double> probe_us;  // This window's.
  const auto close_window = [&] {
    const double scale =
        HeapProbe::kReferenceUs / Percentile(&probe_us, 0.5);
    for (double us : window_query_us) query_us.push_back(us * scale);
    for (double us : window_mutation_us) mutation_us.push_back(us * scale);
    serving_s += window_serving_s * scale;
    raw_query_us.insert(raw_query_us.end(), window_query_us.begin(),
                        window_query_us.end());
    raw_mutation_us.insert(raw_mutation_us.end(), window_mutation_us.begin(),
                           window_mutation_us.end());
    raw_serving_s += window_serving_s;
    all_probe_us.insert(all_probe_us.end(), probe_us.begin(),
                        probe_us.end());
    window_query_us.clear();
    window_mutation_us.clear();
    window_serving_s = 0;
    probe_us.clear();
    ++windows;
  };
  std::vector<Request> round;
  int64_t attempted = 0, failed = 0, facts_changed = 0;
  const int64_t written_before = WrittenBytes();
  const Clock::time_point phase_start = Clock::now();
  Clock::time_point window_start = phase_start;
  while (SecondsSince(phase_start) < opt.seconds) {
    round.clear();
    responses.clear();
    workload->NextRound(&round);
    probe_us.push_back(probe.RunUs());
    const Clock::time_point round_start = Clock::now();
    for (const Request& r : round) {
      const std::string lines = r.SessionText();
      const Clock::time_point t0 = Clock::now();
      responses.push_back(ServeLines(server.get(), lines));
      (r.is_query ? window_query_us : window_mutation_us)
          .push_back(SecondsSince(t0) * 1e6);
    }
    window_serving_s += SecondsSince(round_start);
    for (size_t i = 0; i < round.size(); ++i) {
      const Outcome o = ParseOutcome(round[i], responses[i]);
      ++attempted;
      failed += o.failed;
      if (!round[i].is_query && !o.failed) facts_changed += o.changed;
      checker.Check(round[i], o);
    }
    if (SecondsSince(window_start) >= kWindowSeconds) {
      close_window();
      window_start = Clock::now();
    }
  }
  if (!probe_us.empty()) close_window();
  const double phase_s = SecondsSince(phase_start);
  const int64_t written = WrittenBytes() - written_before;
  const double peak_rss_mb = PeakRssMb();
  const hypo::QueryServer::Counters counters = server->counters();

  bool correct = checker.totals().mismatches == 0;
  correct &= CheckCounters(*server, checker.totals());
  correct &= CheckDefinition3(server.get(), *workload, checker.what_ifs(),
                              checker.facts());
  correct &=
      CheckRestart(std::move(server), *workload, data_dir, checker.facts());
  std::filesystem::remove_all(data_dir);

  std::cout << "# timed phase: " << phase_s << " s (" << raw_serving_s
            << " s serving), " << query_us.size() << " queries, "
            << mutation_us.size() << " mutation batches, "
            << counters.checkpoints << " checkpoints, " << counters.base_facts
            << " base facts, " << windows << " windows" << std::endl;
  std::cout << "# heap probe quartiles (us): "
            << Percentile(&all_probe_us, 0.25) << " "
            << Percentile(&all_probe_us, 0.5) << " "
            << Percentile(&all_probe_us, 0.75) << std::endl;
  std::cout << "# as measured: setup_s " << setup_s
            << " s, query p50/p90 "
            << Percentile(&raw_query_us, 0.5) << "/"
            << Percentile(&raw_query_us, 0.9) << " us, mutation p50/p90 "
            << Percentile(&raw_mutation_us, 0.5) << "/"
            << Percentile(&raw_mutation_us, 0.9) << " us, "
            << static_cast<double>(attempted) / raw_serving_s << " req/s"
            << std::endl;
  using Series = std::pair<const char*, std::vector<double>*>;
  for (const auto& [label, values] :
       {Series{"query", &raw_query_us}, Series{"mutation", &raw_mutation_us}}) {
    std::cout << "# " << label << " latency deciles as measured (us):";
    for (int d = 1; d <= 9; ++d) {
      std::cout << " " << static_cast<int64_t>(Percentile(values, d / 10.0));
    }
    std::cout << std::endl;
  }
  PrintResult(
      correct, attempted, failed,
      {{"setup_s", setup_s, "s"},
       {"query_p50_us", Percentile(&query_us, 0.5), "us"},
       {"query_p90_us", Percentile(&query_us, 0.9), "us"},
       {"mutation_p50_us", Percentile(&mutation_us, 0.5), "us"},
       {"mutation_p90_us", Percentile(&mutation_us, 0.9), "us"},
       {"requests_per_s", static_cast<double>(attempted) / serving_s,
        "req/s"},
       {"peak_rss_mb", peak_rss_mb, "MB"},
       {"disk_write_bytes_per_fact",
        static_cast<double>(written) / static_cast<double>(facts_changed),
        "bytes"},
       {"base_bytes_per_fact",
        static_cast<double>(counters.arena_bytes) /
            static_cast<double>(counters.base_facts),
        "bytes"}});
  return 0;
}

bool ParseArgs(int argc, char** argv, RunOptions* opt) {
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--inject-wrong-answer") {
      opt->inject_wrong_answer = true;
    } else if (arg == "--workload" && has_value) {
      opt->workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      const std::string v = argv[++i];
      auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(),
                                       opt->seed);
      if (ec != std::errc() || end != v.data() + v.size()) return false;
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      opt->seconds = std::atof(argv[++i]);
      if (!(opt->seconds > 0 && opt->seconds <= 120)) return false;
    } else if (arg == "--trace" && has_value) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return false;
      opt->trace = v == "1";
    } else if (arg == "--out-dir" && has_value) {
      opt->out_dir = argv[++i];
    } else {
      return false;
    }
  }
  const auto& names = Workload::Names();
  return have_workload && have_seed && !opt->out_dir.empty() &&
         std::find(names.begin(), names.end(), opt->workload) != names.end();
}

}  // namespace
}  // namespace serverbench

int main(int argc, char** argv) {
  using namespace serverbench;
  const Clock::time_point process_start = Clock::now();
  RunOptions opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::cerr << "usage: serverbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --out-dir DIR [--inject-wrong-answer]\n"
                 "workloads:";
    for (const std::string& name : Workload::Names()) std::cerr << " " << name;
    std::cerr << "\n";
    return 2;
  }
  std::filesystem::create_directories(opt.out_dir);
  PrintBuildInfo(opt);
  return opt.trace ? RunTraced(opt) : RunTimed(opt, process_start);
}
