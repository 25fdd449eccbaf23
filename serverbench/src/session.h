#ifndef SERVERBENCH_SESSION_H_
#define SERVERBENCH_SESSION_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "reference.h"
#include "server/query_server.h"
#include "workload.h"

namespace serverbench {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  // Data dirs and trace files; created if absent.
  /// Replace one expected answer with a wrong one, to show that the
  /// answer check catches it.
  bool inject_wrong_answer = false;
};

/// What the server answered to one request: a query's canonical answer,
/// or a batch's `changed=` count. `failed` marks an `err` or malformed
/// response.
struct Outcome {
  std::string answer;
  int64_t changed = -1;
  bool failed = false;
};

/// Sends one request through RunSession (the hypo_serve line protocol,
/// minus the pipe) and returns the raw response text.
std::string ServeLines(hypo::QueryServer* server, const std::string& lines);

/// Parses a raw RunSession response to `request` into an Outcome.
Outcome ParseOutcome(const Request& request, const std::string& response);

/// Totals the load generator (and reference) counted for a stream.
struct StreamTotals {
  int64_t queries = 0;
  int64_t batches = 0;
  int64_t nonempty_batches = 0;
  int64_t mismatches = 0;  // Served answers that differ from the reference.
};

/// Checks served requests, in stream order, against the reference
/// evaluator, as they come: a run keeps no more of its stream than a
/// round, so the harness's memory does not grow with the run.
class StreamChecker {
 public:
  StreamChecker(const Workload& workload, bool inject_wrong_answer);

  /// Checks one served request; a failed one is counted but not checked
  /// (a failed batch was not committed, so the reference skips it too).
  void Check(const Request& request, const Outcome& outcome);

  const StreamTotals& totals() const { return totals_; }
  /// The reference's fact set after every batch checked so far.
  const FactSet& facts() const { return facts_; }
  /// The stream's first what-if queries, kept for CheckDefinition3.
  const std::vector<Request>& what_ifs() const { return what_ifs_; }

 private:
  std::unique_ptr<Reference> reference_;
  bool inject_wrong_answer_;
  FactSet facts_;
  int64_t version_ = 0;
  StreamTotals totals_;
  std::vector<Request> what_ifs_;
};

/// (c) The server's own counters agree with the generator's counts.
bool CheckCounters(const hypo::QueryServer& server,
                   const StreamTotals& totals);

/// (a) Definition 3 on a sample of `what_ifs` whose hypothesis is absent
/// from `facts` (the current base): `A[add: B]` equals `A` after
/// `insert B`, and `retract B` restores the canonical state byte for byte.
bool CheckDefinition3(hypo::QueryServer* server, const Workload& workload,
                      const std::vector<Request>& what_ifs,
                      const FactSet& facts);

/// (b) Shutdown, recover from the data dir, and compare the recovered
/// canonical state with `facts`. Consumes the server.
bool CheckRestart(std::unique_ptr<hypo::QueryServer> server,
                  const Workload& workload, const std::string& data_dir,
                  const FactSet& facts);

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Prints the result object as the last line of standard output.
void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics);

/// Prints the build and machine facts every run records.
void PrintBuildInfo(const RunOptions& options);

/// Nearest-rank percentile of `values` (sorted in place); 0 when empty.
double Percentile(std::vector<double>* values, double p);

}  // namespace serverbench

#endif  // SERVERBENCH_SESSION_H_
