// Shared declarations of the repository benchmark: the in-memory span
// recorder the traced run uses, and the workload interface (one closed-loop
// operation = one experiment, spec -> summary, timed by phase).
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "core/topology.h"
#include "sim/timer_wheel.h"

namespace perfbench {

inline double now_sec() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

// Spans the benchmark records around its own calls into the library. Kept
// in memory and reported when the run ends. A disabled tracer records
// nothing, so untraced operations run the same code at the cost of one
// branch per call site.
class Tracer {
 public:
  struct Span {
    const char* name;
    int parent;  // index into spans(), -1 for a root
    double start;
    double end;
  };

  explicit Tracer(bool on) : on_(on) {}

  bool on() const { return on_; }
  int begin(const char* name) {
    if (!on_) return -1;
    spans_.push_back({name, open_, now_sec(), 0.0});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }
  void end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now_sec();
    open_ = spans_[static_cast<std::size_t>(id)].parent;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  int open_ = -1;
  std::vector<Span> spans_;
};

class Scope {
 public:
  Scope(Tracer& t, const char* name) : t_(t), id_(t.begin(name)) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

enum class Scale { kFull, kTiny };

// One experiment of an operation: the spec plus the paper claim its queue
// synchronization must reproduce, if any.
struct PartSpec {
  tcpdyn::core::TopoSpec spec;
  std::optional<tcpdyn::core::SyncMode> queue_sync;
};

// Shard count of the traced probe (see Workload).
inline constexpr std::size_t kProbeShards = 2;

// Every workload runs serially. Traced runs also call the shard planner on
// its topology and, with sharded_probe, run the same spec through
// ShardedEngine at kProbeShards, so the sharded layers are measured beside
// the serial run they compete with.
struct Workload {
  const char* name;
  tcpdyn::sim::TimerBackend backend;
  bool sharded_probe;
  std::vector<PartSpec> (*make)(std::uint64_t seed, Scale scale);
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

inline constexpr std::uint64_t kDefaultSeed = 42;

// Deterministic counts read from the library's public results and
// counters, summed over an operation's experiments.
struct Counts {
  std::uint64_t flows = 0;
  std::uint64_t events = 0;
  std::uint64_t port_arrivals = 0;  // every port, not only monitored ones
  std::uint64_t drops = 0;
  std::uint64_t host_delivered = 0;
  std::uint64_t data_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t queue_points = 0;   // monitor records (full or streaming)
  // Traced operations only:
  std::uint64_t period_samples = 0;
  std::uint64_t cut_links = 0;     // the planner probe
  double lookahead_us = 0.0;
  std::uint64_t shard_events = 0;  // the sharded probe
  double heap_bytes_instantiated = 0.0;
};

// The exact outcome of one experiment, as recorded in expected.inc.
struct PartRecord {
  std::uint64_t events = 0;
  std::uint64_t created = 0;    // audit totals
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t digest = 0;     // FNV-1a over counters and the summary
  bool operator==(const PartRecord&) const = default;
};

// What one operation produced. Timings are seconds.
struct OpResult {
  double setup = 0.0;
  double run = 0.0;
  double analyze = 0.0;
  double wall = 0.0;
  Counts counts;
  std::vector<PartRecord> parts;    // one per experiment
  std::vector<PartRecord> sharded;  // the sharded probe, if it ran
  std::vector<std::string> errors;  // failed checks; empty = passed
};

// Runs one operation: builds every experiment of the workload (setup),
// runs them (run), summarizes them (analyze), and checks the outputs.
// Exceptions from the library are caught and recorded as errors. Every
// seed checks the invariants (the audit ledger closes, the run reaches its
// end). When `expected` is true (the default seed) the run must also match
// the recorded values and reproduce the paper's synchronization claims;
// `corrupt_expected` flips the recorded digests so the self-test can see a
// mismatch reported as a failure.
OpResult run_operation(const Workload& w, std::uint64_t seed, Scale scale,
                       Tracer& tracer, bool expected, bool corrupt_expected);

// Prints the recorded-values table entries for this workload at this scale
// (used to refresh expected.inc after an intended behaviour change).
void print_expected(const Workload& w, Scale scale, const OpResult& r);

}  // namespace perfbench
