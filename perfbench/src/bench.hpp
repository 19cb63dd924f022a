#pragma once
// Shared plumbing for the repository benchmark: the host clock, the metric
// sheet every workload fills, order statistics, a stable output digest, the
// in-memory span log of the traced run, and the policy wiring the runtime
// and decomposition passes use to time each on_sample call.

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "magus/common/thread_pool.hpp"
#include "magus/core/policy.hpp"
#include "magus/exp/experiment.hpp"
#include "magus/fault/injectors.hpp"
#include "magus/fault/plan.hpp"
#include "magus/hw/counters.hpp"
#include "magus/hw/msr.hpp"
#include "magus/hw/uncore_domain.hpp"
#include "magus/hw/uncore_freq.hpp"
#include "magus/sim/engine.hpp"
#include "magus/wl/phase.hpp"

namespace perfbench {

namespace common = magus::common;
namespace core = magus::core;
namespace exp = magus::exp;
namespace fault = magus::fault;
namespace hw = magus::hw;
namespace sim = magus::sim;
namespace wl = magus::wl;

/// Host wall-clock nanoseconds (monotonic, arbitrary origin).
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t jobs = 3;      ///< pool workers; every parallel loop adds the caller
  std::string spans_out;     ///< traced run: where the span log is written ("" = nowhere)
  bool digest_only = false;  ///< one batch, report only the output digest (golden capture)
};

/// How a number was obtained. Host numbers are wall-clock measurements and
/// vary run to run; sim numbers are deterministic outputs of the simulated
/// system; exact numbers are deterministic counts of work the program did.
enum class Tag { kHost, kSim, kExact };

[[nodiscard]] const char* tag_name(Tag tag);

struct Metric {
  double value = 0.0;
  std::string unit;
  Tag tag = Tag::kHost;
  std::string note;  ///< printed beside the value (sample counts, paper figures)
};

/// name -> metric, printed and serialized in name order.
class Sheet {
 public:
  void set(const std::string& name, double value, std::string unit, Tag tag,
           std::string note = "");
  [[nodiscard]] bool has(const std::string& name) const { return metrics_.count(name) > 0; }
  [[nodiscard]] const std::map<std::string, Metric>& all() const noexcept { return metrics_; }

 private:
  std::map<std::string, Metric> metrics_;
};

/// One correctness check, run outside every timed region.
struct Gate {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Everything one workload run reports back to main().
struct Report {
  Sheet sheet;
  std::vector<Gate> gates;
  std::string digest;          ///< canonical output digest (golden-compared by run.py)
  std::uint64_t attempted = 0; ///< work items attempted in all batches

  void gate(std::string name, bool ok, std::string detail = "") {
    gates.push_back({std::move(name), ok, std::move(detail)});
  }
};

// --- order statistics -------------------------------------------------------

[[nodiscard]] double median(std::vector<double> xs);
/// Percentile p in [0, 100], estimated as the mean of the order statistics
/// within +-w percentile of p, w = min(5, (100 - p) / 2) (p50: the 45-55 %
/// band; p99: 98.5-99.5 %). A continuous estimate, so timings read in whole
/// nanoseconds do not snap to the same integer run after run.
[[nodiscard]] double percentile(std::vector<double> xs, double p);
/// Interquartile range (Q3 - Q1).
[[nodiscard]] double iqr(std::vector<double> xs);

// --- digest -----------------------------------------------------------------

/// 64-bit FNV-1a over the bytes fed in. Two outputs match iff every fed byte
/// matched (up to 64-bit collisions, irrelevant at this scale).
class Digest {
 public:
  Digest& add(std::string_view bytes) noexcept;
  Digest& add(double v) noexcept;  ///< exact bit pattern
  Digest& add(std::uint64_t v) noexcept;
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// --- spans ------------------------------------------------------------------

/// In-memory span log for the traced run: name, host start/end, the span
/// that caused it, and the node/run identifier it belongs to. Written out
/// only when the run ends. Recording is thread-safe (the exp layer fans apps
/// out over worker threads); the readers run after every writer is done.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    std::uint64_t id = 0;
  };

  /// Open a span now; returns its index for close() and as a parent.
  int open(std::string name, std::uint64_t id = 0, int parent = -1);
  void close(int index);
  /// Record an already-timed span.
  int add(std::string name, std::int64_t start_ns, std::int64_t end_ns, int parent,
          std::uint64_t id);

  /// Durations (ns) of every span with this name, in record order.
  [[nodiscard]] std::vector<double> durations_ns(std::string_view name) const;
  /// Summed duration (s) of every span with this name.
  [[nodiscard]] double total_s(std::string_view name) const;
  /// Summed self time (s): each span's duration minus its children's.
  [[nodiscard]] double self_s(std::string_view name) const;
  /// Tab-separated dump: index, parent, id, name, start_ns, end_ns.
  void write(const std::string& path) const;

 private:
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span scope (no-op when the log is null: the untraced path).
class Scope {
 public:
  Scope(SpanLog* log, std::string name, std::uint64_t id = 0, int parent = -1)
      : log_(log), index_(log ? log->open(std::move(name), id, parent) : -1) {}
  ~Scope() {
    if (log_) log_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] int index() const noexcept { return index_; }

 private:
  SpanLog* log_;
  int index_;
};

// --- timed policy wiring ----------------------------------------------------

/// Host-side record of every on_sample a bound policy executed.
struct SampleLog {
  std::vector<double> ns;       ///< per-call host latency
  SpanLog* spans = nullptr;     ///< traced run: one span per call
  int parent = -1;              ///< enclosing span (the engine run)
};

/// The hw backends of one engine (SimEngine) or one batch lane (BatchEngine).
struct Backends {
  hw::IMsrDevice* msr = nullptr;
  hw::IMemThroughputCounter* mem = nullptr;
  hw::IEnergyCounter* energy = nullptr;
  hw::ICoreCounters* cores = nullptr;
  hw::IUncoreDomainSet* domains = nullptr;
};

/// A factory-made policy bound to one engine's backends exactly as
/// exp::run_policy / exp::BatchRun bind it (fault decorators when the
/// options enable faults, per-domain control on multi-domain nodes), whose
/// hook times every on_sample call into `log`. Hooks capture `this`: keep
/// instances at a stable address (std::deque / unique_ptr).
class TimedPolicy {
 public:
  TimedPolicy(const sim::SystemSpec& system, const Backends& backends,
              const std::string& policy, const exp::RunOptions& opts, SampleLog& log,
              std::uint64_t span_id = 0);
  TimedPolicy(const TimedPolicy&) = delete;
  TimedPolicy& operator=(const TimedPolicy&) = delete;

  [[nodiscard]] sim::PolicyHook hook();
  /// Called after every on_sample, outside the timed region (e.g. to
  /// record the decision it made). Pass nullptr to clear.
  void after_sample(std::function<void(common::Seconds)> fn) { after_sample_ = std::move(fn); }

 private:
  void sample(common::Seconds now);
  void record(std::int64_t start_ns, std::int64_t end_ns);

  std::string span_name_;
  std::uint64_t span_id_;
  bool runtime_ = false;
  hw::UncoreFreqLadder ladder_;
  fault::FaultStats faults_;
  std::unique_ptr<fault::FaultPlan> plan_;
  std::unique_ptr<fault::FaultyMemThroughputCounter> faulty_mem_;
  std::unique_ptr<fault::FaultyMsrDevice> faulty_msr_;
  std::unique_ptr<core::IPolicy> policy_;
  SampleLog* log_;
  std::function<void(common::Seconds)> after_sample_;
};

/// One policy run on its own SimEngine, bound the way exp::run_policy binds it.
struct EngineJob {
  sim::SystemSpec system;
  wl::PhaseProgram program;
  exp::RunOptions opts;
  std::string policy;
};

/// Every job run once on `pool` (workers plus the caller), each on_sample
/// timed; traced, each run is a "sim.engine_run" span holding its samples.
struct SamplePass {
  std::map<std::string, SampleLog> by_policy;  ///< samples per policy, job order
  std::vector<double> all_ns;
  std::vector<sim::SimResult> results;         ///< per job
  double run_s = 0.0;                          ///< summed engine run wall time
};

[[nodiscard]] SamplePass sample_pass(const std::vector<EngineJob>& jobs,
                                     common::ThreadPool& pool, SpanLog* spans);

/// The layer a policy belongs to, as used in span and metric names:
/// "core.magus" for the paper's runtime, "baseline.<name>" for comparators.
[[nodiscard]] std::string policy_layer(const std::string& policy);

/// Per-policy on_sample latency: core.magus_sample_ns_p50/p99 for MAGUS,
/// baseline.<name>.sample_ns (p50) for each comparator present.
void add_sample_metrics(Sheet& sheet, const std::map<std::string, SampleLog>& by_policy);

/// The end-to-end p50 of on_sample latency over a policy mix: the mean over
/// policy families of each family's p50, so the share of each family in a
/// seed's inputs does not move it (a pooled median of a multi-modal mix
/// jumps between modes when the shares shift).
[[nodiscard]] double family_p50(const std::map<std::string, SampleLog>& by_policy);

/// hw.{msr_reads,msr_writes,pcm_reads}_per_sample from metered accesses.
void add_access_metrics(Sheet& sheet, const sim::AccessMeter& accesses,
                        unsigned long long invocations);

/// Peak resident set size of this process so far (MB).
[[nodiscard]] double peak_rss_mb();

// --- workloads --------------------------------------------------------------

Report run_fleet_sweep(const Options& opt);
Report run_runtime_loop(const Options& opt);
Report run_paper_eval(const Options& opt);

/// Traced passes of each family at reference size, used to fill the
/// per-layer metrics of layers the workload under test does not call.
Sheet trace_fleet_reference(const Options& opt);
Sheet trace_runtime_reference(const Options& opt);
Sheet trace_paper_reference(const Options& opt);

}  // namespace perfbench
