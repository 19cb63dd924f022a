// magus_perfbench: runs one benchmark workload and prints its metrics.
//
//   magus_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--spans-out <path>] [--digest-only 1]
//
// Workloads: fleet_sweep, runtime_loop, paper_eval
// (see perfbench/README.md). With --trace 0 the run measures the end-to-end
// metrics with no instrumentation beyond the timers; with --trace 1 it
// records spans around the public calls into each layer and reports the
// per-layer metrics. Human-readable tables go first; the last line of
// standard output is one JSON object for perfbench/run.py. The exit code is
// 0 when every correctness gate held, 1 when one failed, 2 on bad usage.
// --digest-only 1 runs one batch and prints only the output digest (how
// perfbench/goldens.py captures the golden digests).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "magus/common/thread_pool.hpp"

namespace {

using namespace perfbench;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_table(const Sheet& sheet, bool host) {
  std::printf("  %-38s %18s  %-6s %-5s  %s\n", "metric", "value", "unit", "tag", "note");
  for (const auto& [name, m] : sheet.all()) {
    if ((m.tag == Tag::kHost) != host) continue;
    std::printf("  %-38s %18.6g  %-6s %-5s  %s\n", name.c_str(), m.value, m.unit.c_str(),
                tag_name(m.tag), m.note.c_str());
  }
}

int usage(const char* why) {
  std::cerr << "magus_perfbench: " << why
            << "\nusage: magus_perfbench --workload <fleet_sweep|runtime_loop|paper_eval> "
               "--seed <n> --seconds <s> --trace <0|1> "
               "[--spans-out <path>] [--digest-only 1]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
      const std::string value = argv[++i];
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (flag == "--spans-out") {
        opt.spans_out = value;
      } else if (flag == "--digest-only") {
        if (value != "0" && value != "1") return usage("--digest-only takes 0 or 1");
        opt.digest_only = value == "1";
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (!(opt.seconds >= 0.0 && opt.seconds <= 3600.0)) return usage("--seconds out of range");

  // min(4, nproc) busy threads: every parallel loop (the library's and the
  // benchmark's own) runs on its pool's workers plus the calling thread.
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  opt.jobs = std::max<std::size_t>(1, std::min<std::size_t>(4, nproc) - 1);
  magus::common::set_default_jobs(opt.jobs);

  Report (*run)(const Options&) = nullptr;
  if (opt.workload == "fleet_sweep") run = run_fleet_sweep;
  if (opt.workload == "runtime_loop") run = run_runtime_loop;
  if (opt.workload == "paper_eval") run = run_paper_eval;
  if (!run) return usage(("unknown workload '" + opt.workload + "'").c_str());

  Report rep;
  try {
    rep = run(opt);
    if (opt.digest_only) {
      std::printf("%s\n", rep.digest.c_str());
      return 0;
    }
    if (opt.trace) {
      // Layers this workload does not call are timed on small reference
      // inputs so every traced run reports the same metric set.
      const auto fill = [&rep](const Sheet& ref) {
        for (const auto& [name, m] : ref.all()) {
          if (rep.sheet.has(name)) continue;
          rep.sheet.set(name, m.value, m.unit, m.tag, m.note.empty() ? "ref" : "ref: " + m.note);
        }
      };
      fill(trace_fleet_reference(opt));
      if (opt.workload != "runtime_loop") fill(trace_runtime_reference(opt));
      if (opt.workload != "paper_eval") fill(trace_paper_reference(opt));
    } else {
      rep.sheet.set("peak_rss_mb", peak_rss_mb(), "MB", Tag::kHost, "process high-water mark");
    }
  } catch (const std::exception& e) {
    std::cerr << "magus_perfbench: " << opt.workload << " failed: " << e.what() << "\n";
    return 1;
  }
  bool finite = true;
  for (const auto& [name, m] : rep.sheet.all()) finite = finite && std::isfinite(m.value);
  rep.gate("every metric finite", finite);

  std::uint64_t gate_failures = 0;
  for (const Gate& g : rep.gates) gate_failures += g.ok ? 0 : 1;

  std::printf("workload %s  seed %llu  trace %d  pool workers %zu + caller, nproc %u\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? 1 : 0, opt.jobs, nproc);
  std::printf("host metrics (wall clock):\n");
  print_table(rep.sheet, true);
  std::printf("simulated outputs and exact counts (not host time):\n");
  print_table(rep.sheet, false);
  std::printf("correctness gates:\n");
  for (const Gate& g : rep.gates) {
    std::printf("  [%s] %s%s%s\n", g.ok ? "ok" : "FAIL", g.name.c_str(),
                g.detail.empty() ? "" : ": ", g.detail.c_str());
  }

  std::ostringstream js;
  js << "{\"workload\": " << json_string(opt.workload) << ", \"seed\": " << opt.seed
     << ", \"trace\": " << (opt.trace ? 1 : 0) << ", \"digest\": " << json_string(rep.digest)
     << ", \"attempted\": " << rep.attempted << ", \"failed\": " << gate_failures
     << ", \"gates\": [";
  for (std::size_t i = 0; i < rep.gates.size(); ++i) {
    js << (i ? ", " : "") << "{\"name\": " << json_string(rep.gates[i].name)
       << ", \"ok\": " << (rep.gates[i].ok ? "true" : "false") << "}";
  }
  js << "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : rep.sheet.all()) {
    js << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
       << (std::isfinite(m.value) ? json_number(m.value) : "null")
       << ", \"unit\": " << json_string(m.unit) << ", \"tag\": " << json_string(tag_name(m.tag))
       << "}";
    first = false;
  }
  js << "}, \"stamp\": {\"nproc\": " << nproc << ", \"workers\": " << opt.jobs
     << ", \"compiler\": " << json_string(MAGUS_PERFBENCH_COMPILER)
     << ", \"build_type\": " << json_string(MAGUS_PERFBENCH_BUILD_TYPE) << "}}";
  std::printf("%s\n", js.str().c_str());
  return gate_failures == 0 ? 0 : 1;
}
