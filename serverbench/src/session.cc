#include "session.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>

#include "base/failpoint.h"
#include "server/protocol.h"

namespace serverbench {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string ServeLines(hypo::QueryServer* server, const std::string& lines) {
  std::istringstream in(lines);
  std::ostringstream out;
  hypo::RunSession(server, in, out);
  return std::move(out).str();
}

Outcome ParseOutcome(const Request& request, const std::string& response) {
  Outcome out;
  if (request.is_query) {
    out.answer = CanonicalResponse(response);
    out.failed = out.answer.empty();
  } else {
    out.changed = ChangedFromResponse(response);
    out.failed = out.changed < 0;
  }
  if (out.failed) out.answer = response;
  return out;
}

StreamChecker::StreamChecker(const Workload& workload,
                             bool inject_wrong_answer)
    : reference_(Reference::Make(workload.policy())),
      inject_wrong_answer_(inject_wrong_answer),
      facts_(workload.initial_facts()) {}

void StreamChecker::Check(const Request& r, const Outcome& o) {
  constexpr size_t kWhatIfsKept = 64;
  if (!r.is_query) {
    ++totals_.batches;
    if (o.failed) return;
    const int64_t changed = ApplyBatch(r, &facts_);
    ++version_;
    totals_.nonempty_batches += changed > 0;
    if (changed != o.changed && ++totals_.mismatches <= 5) {
      std::cerr << "batch: changed=" << o.changed << ", reference nets "
                << changed << "\n";
    }
    return;
  }
  ++totals_.queries;
  if (r.hypo.has_value() && what_ifs_.size() < kWhatIfsKept) {
    what_ifs_.push_back(r);
  }
  if (o.failed) return;
  std::string expected = reference_->Answer(r, facts_, version_);
  if (inject_wrong_answer_ && totals_.queries == 1) expected += " (wrong)";
  if (expected != o.answer && ++totals_.mismatches <= 5) {
    std::cerr << "query " << r.query << "\n  server:    " << o.answer
              << "\n  reference: " << expected << "\n";
  }
}

bool CheckCounters(const hypo::QueryServer& server,
                   const StreamTotals& totals) {
  const hypo::QueryServer::Counters c = server.counters();
  const bool ok = c.queries == totals.queries &&
                  c.mutation_batches == totals.batches &&
                  c.journal_appends == totals.nonempty_batches;
  if (!ok) {
    std::cerr << "counter check: server queries=" << c.queries
              << " batches=" << c.mutation_batches
              << " journal_appends=" << c.journal_appends
              << "; generator queries=" << totals.queries
              << " batches=" << totals.batches
              << " non-empty batches=" << totals.nonempty_batches << "\n";
  }
  return ok;
}

bool CheckDefinition3(hypo::QueryServer* server, const Workload& workload,
                      const std::vector<Request>& what_ifs,
                      const FactSet& facts) {
  constexpr int kSample = 4;
  auto reference = Reference::Make(workload.policy());
  int64_t version = 0;
  int checked = 0;
  for (const Request& q : what_ifs) {
    if (checked == kSample) break;
    if (facts.count(*q.hypo) > 0) continue;
    const std::string before = server->CanonicalState();
    const std::string hypothetical =
        CanonicalResponse(ServeLines(server, "query " + q.query + "\n"));
    const std::string expected = reference->Answer(q, facts, version);
    const int64_t inserted = ChangedFromResponse(
        ServeLines(server, "insert " + q.hypo->Text() + "\n"));
    const std::string plain_text = q.query.substr(0, q.query.find("[add:"));
    const std::string plain =
        CanonicalResponse(ServeLines(server, "query " + plain_text + "\n"));
    const int64_t retracted = ChangedFromResponse(
        ServeLines(server, "retract " + q.hypo->Text() + "\n"));
    const bool restored = server->CanonicalState() == before;
    if (hypothetical != plain || hypothetical != expected || inserted != 1 ||
        retracted != 1 || !restored) {
      std::cerr << "Definition 3 check failed on " << q.query
                << ": hypothetical=" << hypothetical << " plain=" << plain
                << " reference=" << expected << " insert changed="
                << inserted << " retract changed=" << retracted
                << " state restored=" << restored << "\n";
      return false;
    }
    ++checked;
  }
  if (checked < kSample) {
    std::cerr << "Definition 3 check: only " << checked
              << " what-if queries to sample\n";
    return false;
  }
  return true;
}

bool CheckRestart(std::unique_ptr<hypo::QueryServer> server,
                  const Workload& workload, const std::string& data_dir,
                  const FactSet& facts) {
  if (hypo::Status s = server->Shutdown(); !s.ok()) {
    std::cerr << "shutdown: " << s << "\n";
    return false;
  }
  server.reset();
  auto recovered = hypo::QueryServer::Create(
      workload.program(), workload.ServerOptionsFor(data_dir));
  if (!recovered.ok()) {
    std::cerr << "recovery: " << recovered.status() << "\n";
    return false;
  }
  const bool ok = (*recovered)->counters().recoveries == 1 &&
                  (*recovered)->CanonicalState() == CanonicalFacts(facts);
  if (!ok) std::cerr << "restart check: recovered state differs\n";
  (void)(*recovered)->Shutdown();
  return ok;
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
}

void PrintBuildInfo(const RunOptions& options) {
  std::cout << "# serverbench workload=" << options.workload
            << " seed=" << options.seed << " seconds=" << options.seconds
            << " trace=" << (options.trace ? 1 : 0)
            << " compiler=" << SERVERBENCH_COMPILER
            << " build_type=" << SERVERBENCH_BUILD_TYPE << " failpoints="
            << (hypo::FailpointsEnabled() ? "on" : "off")
            << " nproc=" << sysconf(_SC_NPROCESSORS_ONLN) << std::endl;
}

double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return 0;
  std::sort(values->begin(), values->end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values->size())));
  return (*values)[std::clamp<size_t>(rank, 1, values->size()) - 1];
}

}  // namespace serverbench
