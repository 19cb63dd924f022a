#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "magus/common/stats.hpp"
#include "magus/core/policy_factory.hpp"

namespace perfbench {

const char* tag_name(Tag tag) {
  switch (tag) {
    case Tag::kHost: return "host";
    case Tag::kSim: return "sim";
    case Tag::kExact: return "exact";
  }
  return "?";
}

void Sheet::set(const std::string& name, double value, std::string unit, Tag tag,
                std::string note) {
  metrics_[name] = Metric{value, std::move(unit), tag, std::move(note)};
}

double median(std::vector<double> xs) { return magus::common::median(xs); }

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double n = static_cast<double>(xs.size());
  const double w = std::min(5.0, (100.0 - p) / 2.0);
  const double lo_rank = std::clamp(std::floor((p - w) / 100.0 * n), 0.0, n - 1.0);
  const double hi_rank = std::clamp(std::ceil((p + w) / 100.0 * n), lo_rank + 1.0, n);
  const auto lo = static_cast<std::size_t>(lo_rank);
  const auto hi = static_cast<std::size_t>(hi_rank);
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += xs[i];
  return sum / static_cast<double>(hi - lo);
}

double iqr(std::vector<double> xs) {
  return magus::common::percentile(xs, 75.0) - magus::common::percentile(xs, 25.0);
}

Digest& Digest::add(std::string_view bytes) noexcept {
  for (const char c : bytes) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ull;
  }
  return *this;
}

Digest& Digest::add(double v) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return add(bits);
}

Digest& Digest::add(std::uint64_t v) noexcept {
  char bytes[sizeof v];
  std::memcpy(bytes, &v, sizeof v);
  return add(std::string_view(bytes, sizeof bytes));
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

int SpanLog::open(std::string name, std::uint64_t id, int parent) {
  const std::int64_t t = now_ns();
  return add(std::move(name), t, t, parent, id);
}

void SpanLog::close(int index) {
  const std::int64_t t = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_ns = t;
}

int SpanLog::add(std::string name, std::int64_t start_ns, std::int64_t end_ns, int parent,
                 std::uint64_t id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{std::move(name), start_ns, end_ns, parent, id});
  return static_cast<int>(spans_.size() - 1);
}

std::vector<double> SpanLog::durations_ns(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  }
  return out;
}

double SpanLog::total_s(std::string_view name) const {
  double sum = 0.0;
  for (const double ns : durations_ns(name)) sum += ns;
  return sum * 1e-9;
}

double SpanLog::self_s(std::string_view name) const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::int64_t self = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) self += spans_[i].end_ns - spans_[i].start_ns - child_ns[i];
  }
  return static_cast<double>(self) * 1e-9;
}

void SpanLog::write(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write span log " + path);
  os << "index\tparent\tid\tname\tstart_ns\tend_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << i << '\t' << s.parent << '\t' << s.id << '\t' << s.name << '\t' << s.start_ns
       << '\t' << s.end_ns << '\n';
  }
}

std::string policy_layer(const std::string& policy) {
  return policy == "magus" ? "core.magus" : "baseline." + policy;
}

TimedPolicy::TimedPolicy(const sim::SystemSpec& system, const Backends& backends,
                         const std::string& policy, const exp::RunOptions& opts,
                         SampleLog& log, std::uint64_t span_id)
    : span_name_(policy_layer(policy) + ".on_sample"),
      span_id_(span_id),
      ladder_(system.cpu.uncore_min_ghz, system.cpu.uncore_max_ghz),
      log_(&log) {
  core::PolicyContext ctx;
  ctx.mem_counter = backends.mem;
  ctx.energy_counter = backends.energy;
  ctx.core_counters = backends.cores;
  ctx.msr = backends.msr;
  ctx.ladder = &ladder_;
  if (opts.fault.enabled()) {
    plan_ = std::make_unique<fault::FaultPlan>(opts.fault, opts.fault_node);
    faulty_mem_ =
        std::make_unique<fault::FaultyMemThroughputCounter>(*backends.mem, *plan_, faults_);
    faulty_msr_ = std::make_unique<fault::FaultyMsrDevice>(*backends.msr, *plan_, faults_);
    ctx.mem_counter = faulty_mem_.get();
    ctx.msr = faulty_msr_.get();
  }
  ctx.magus = &opts.magus;
  ctx.ups = &opts.ups;
  ctx.duf = &opts.duf;
  ctx.ecoshift = &opts.ecoshift;
  ctx.deadline = &opts.deadline;
  ctx.comppow = &opts.comppow;
  ctx.static_ghz = opts.static_ghz;
  ctx.power_cap = &opts.power_cap;
  // Per-domain control only on multi-domain nodes, as in exp::run_policy.
  if (system.cpu.dies_per_socket > 1 || system.numa_skew != 0.0) ctx.domains = backends.domains;

  const core::PolicyFactory& factory = core::PolicyFactory::instance();
  policy_ = factory.make_policy(policy, ctx);
  runtime_ = factory.is_runtime(policy);
}

sim::PolicyHook TimedPolicy::hook() {
  sim::PolicyHook hook;
  hook.name = policy_->name();
  hook.period_s = policy_->period_s();
  hook.on_start = [this](common::Seconds now) { policy_->on_start(now); };
  if (runtime_) hook.on_sample = [this](common::Seconds now) { sample(now); };
  return hook;
}

void TimedPolicy::sample(common::Seconds now) {
  const std::int64_t start = now_ns();
  try {
    policy_->on_sample(now);
  } catch (...) {
    record(start, now_ns());  // a policy whose backend throws still cost its time
    throw;
  }
  record(start, now_ns());
  if (after_sample_) after_sample_(now);
}

void TimedPolicy::record(std::int64_t start, std::int64_t end) {
  log_->ns.push_back(static_cast<double>(end - start));
  if (log_->spans) log_->spans->add(span_name_, start, end, log_->parent, span_id_);
}

void add_sample_metrics(Sheet& sheet, const std::map<std::string, SampleLog>& by_policy) {
  for (const auto& [policy, log] : by_policy) {
    if (log.ns.empty()) continue;
    const std::string n = std::to_string(log.ns.size()) + " samples";
    if (policy == "magus") {
      sheet.set("core.magus_sample_ns_p50", percentile(log.ns, 50.0), "ns", Tag::kHost, n);
      sheet.set("core.magus_sample_ns_p99", percentile(log.ns, 99.0), "ns", Tag::kHost, n);
    } else {
      sheet.set(policy_layer(policy) + ".sample_ns", percentile(log.ns, 50.0), "ns",
                Tag::kHost, n + ", p50");
    }
  }
}

SamplePass sample_pass(const std::vector<EngineJob>& jobs, common::ThreadPool& pool,
                       SpanLog* spans) {
  std::vector<SampleLog> logs(jobs.size());
  std::vector<double> run_s(jobs.size(), 0.0);
  SamplePass pass;
  pass.results.resize(jobs.size());
  pool.parallel_for_each(jobs.size(), [&](std::size_t id) {
    const EngineJob& job = jobs[id];
    sim::SimEngine engine(job.system, job.program, job.opts.engine);
    const Backends backends{&engine.msr(), &engine.mem_counter(), &engine.energy_counter(),
                            &engine.core_counters(), &engine.domains()};
    logs[id].spans = spans;
    TimedPolicy bound(job.system, backends, job.policy, job.opts, logs[id], id);
    const std::int64_t t0 = now_ns();
    Scope run(spans, "sim.engine_run", id);
    logs[id].parent = run.index();
    pass.results[id] = engine.run(bound.hook());
    run_s[id] = seconds_between(t0, now_ns());
  });
  for (std::size_t id = 0; id < jobs.size(); ++id) {
    std::vector<double>& ns = pass.by_policy[jobs[id].policy].ns;
    ns.insert(ns.end(), logs[id].ns.begin(), logs[id].ns.end());
    pass.all_ns.insert(pass.all_ns.end(), logs[id].ns.begin(), logs[id].ns.end());
    pass.run_s += run_s[id];
  }
  return pass;
}

double family_p50(const std::map<std::string, SampleLog>& by_policy) {
  double sum = 0.0;
  std::size_t families = 0;
  for (const auto& [policy, log] : by_policy) {
    if (log.ns.empty()) continue;
    sum += percentile(log.ns, 50.0);
    ++families;
  }
  return families ? sum / static_cast<double>(families) : 0.0;
}

void add_access_metrics(Sheet& sheet, const sim::AccessMeter& accesses,
                        unsigned long long invocations) {
  if (invocations == 0) return;
  const double n = static_cast<double>(invocations);
  sheet.set("hw.msr_reads_per_sample", static_cast<double>(accesses.msr_reads) / n, "count",
            Tag::kExact);
  sheet.set("hw.msr_writes_per_sample", static_cast<double>(accesses.msr_writes) / n, "count",
            Tag::kExact);
  sheet.set("hw.pcm_reads_per_sample", static_cast<double>(accesses.pcm_reads) / n, "count",
            Tag::kExact);
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss survives execve, so it would report the
  // launching process's peak when that was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

}  // namespace perfbench
