// perfbench: one workload, one run, one JSON result line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --threads <t> --out <dir> [--smoke 1] [--commit <id>]
//             [--break <gate>]
//
// The last line of standard output is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with every end-to-end metric when --trace 0 and every per-layer metric
// when --trace 1. The line before it records the run's annotations (thread
// count, nproc, build type, commit, seed, calibration, steal, CPU time, the
// tail percentiles used and their sample counts). The process exits non-zero
// when any correctness gate fails. --break names a gate to force failing;
// the self-test uses it to prove each gate can fire.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "harness.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Names and units; BENCHMARK.json lists the same, and the self-test checks
// that they agree.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"step_s.p50", "s"},
    {"step_s.tail", "s"},      {"wall_s", "s"},
    {"burst_s.p50", "s"},      {"burst_s.tail", "s"},
    {"peak_rss_mb", "MiB"},    {"virtual_total_s", "virtual_s"},
    {"rel_err_max", "ratio"},
};

const MetricDef kPerLayer[] = {
    {"octree.build_s", "s"},
    {"octree.builds", "count"},
    {"octree.rebin_s", "s"},
    {"octree.lists_s", "s"},
    {"octree.list_builds", "count"},
    {"octree.list_hit_ratio", "ratio"},
    {"expansion.far_s", "s"},
    {"expansion.p2m_s", "thread_s"},
    {"expansion.m2m_s", "thread_s"},
    {"expansion.m2l_s", "thread_s"},
    {"expansion.l2l_s", "thread_s"},
    {"expansion.l2p_s", "thread_s"},
    {"expansion.m2l_pairs", "count"},
    {"expansion.m2l_ns_per_pair", "ns"},
    {"expansion.parallel_eff", "ratio"},
    {"gpusim.p2p_s", "s"},
    {"gpusim.p2p_interactions", "count"},
    {"gpusim.p2p_ns_per_interaction", "ns"},
    {"gpusim.parallel_eff", "ratio"},
    {"machine.far_model_s", "s"},
    {"machine.observe_s", "s"},
    {"balance.post_step_s", "s"},
    {"balance.rebuilds", "count"},
    {"balance.enforce_ops", "count"},
    {"balance.fgo_ops", "count"},
    {"core.step_s", "s"},
    {"core.integrate_s", "s"},
    {"service.round_s", "s"},
    {"host.calib_ms", "ms"},
    {"host.raw_wall_s", "s"},
    {"host.cpu_s", "s"},
    {"host.steal_s", "s"},
    {"host.trace_overhead", "s"},
    {"host.span_coverage", "ratio"},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --threads <t> --out <dir> "
               "[--smoke 1] [--commit <id>] [--break <gate>]\n",
               why.c_str());
  std::exit(2);
}

long parse_long(const std::string& key, const std::string& v) {
  char* end = nullptr;
  errno = 0;
  const long x = std::strtol(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0' || errno == ERANGE || x < 0)
    usage(key + ": '" + v + "' is not a non-negative integer");
  return x;
}

Options parse(int argc, char** argv, std::string& commit) {
  Options o;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false, have_out = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(key + ": missing value");
    const std::string v = argv[i + 1];
    if (key == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (key == "--seed") {
      o.seed = static_cast<std::uint64_t>(parse_long(key, v));
      have_seed = true;
    } else if (key == "--seconds") {
      o.seconds = static_cast<double>(parse_long(key, v));
      have_seconds = true;
    } else if (key == "--trace") {
      o.trace = parse_long(key, v) != 0;
      have_trace = true;
    } else if (key == "--threads") {
      o.threads = static_cast<int>(parse_long(key, v));
      if (o.threads < 1) usage("--threads must be at least 1");
    } else if (key == "--out") {
      o.out_dir = v;
      have_out = true;
    } else if (key == "--smoke") {
      o.smoke = parse_long(key, v) != 0;
    } else if (key == "--commit") {
      commit = v;
    } else if (key == "--break") {
      o.breaks = v;
    } else {
      usage("unknown option " + key);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace || !have_out)
    usage("--workload, --seed, --seconds, --trace and --out are required");
  return o;
}

Workload find_workload(const std::string& name) {
  if (name == "solve-plummer") return solve_plummer;
  if (name == "sim-stokes-blob") return sim_stokes_blob;
  if (name == "replay-collapse") return replay_collapse;
  if (name == "service-churn") return service_churn;
  return nullptr;
}

// Machine-wide steal time so far (all CPUs), from /proc/stat.
double steal_seconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return 0.0;
  for (double& x : v) in >> x;
  return v[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

bool is_engine_workload(const std::string& name) {
  return name != "service-churn";
}

}  // namespace

int run(int argc, char** argv) {
  std::string commit = "unknown";
  Env env;
  env.opt = parse(argc, argv, commit);
  const Workload workload = find_workload(env.opt.workload);
  if (!workload) usage("unknown workload '" + env.opt.workload + "'");
  std::filesystem::create_directories(env.opt.out_dir);
  set_threads(env.opt.threads);

  const double steal0 = steal_seconds();
  const double cpu0 = cpu_seconds();
  env.run_start = raw_now();
  Report r;
  try {
    workload(env, r);
  } catch (const std::exception& e) {
    ++r.attempted;
    ++r.failed;
    r.gate(false, std::string("exception: ") + e.what());
  }
  const double raw_wall = raw_now() - env.run_start;
  const double steal = steal_seconds() - steal0;
  const double cpu = cpu_seconds() - cpu0;
  const double scale = env.calib.scale();

  if (env.opt.breaks == "rel_err") r.rel_err_tol = 0.0;
  if (!(r.rel_err <= r.rel_err_tol))
    r.gate(false, "rel_err_max " + json_number(r.rel_err) + " above tolerance " +
                      json_number(r.rel_err_tol));
  if (env.opt.trace && is_engine_workload(env.opt.workload) &&
      (r.coverage < 0.9 || env.opt.breaks == "coverage"))
    r.gate(false, "layer spans cover only " + json_number(r.coverage) +
                      " of traced step time");
  if (r.attempted < 1) r.attempted = 1;

  std::map<std::string, double> values;
  const double q_step = tail_quantile(r.min_steps);
  const double q_burst = tail_quantile(r.min_bursts);
  if (!env.opt.trace) {
    values["setup_s"] = median(r.setup) * scale;
    values["step_s.p50"] = quantile(r.step, 0.5) * scale;
    values["step_s.tail"] = quantile(r.step, q_step) * scale;
    values["wall_s"] = median(r.wall) * scale;
    values["burst_s.p50"] = quantile(r.burst, 0.5) * scale;
    values["burst_s.tail"] = quantile(r.burst, q_burst) * scale;
    values["peak_rss_mb"] = peak_rss_mib();
    values["virtual_total_s"] = r.virtual_total;
    values["rel_err_max"] = r.rel_err;
  } else {
    for (const MetricDef& m : kPerLayer) values[m.name] = 0.0;
    for (const auto& [name, v] : r.layer) {
      const std::string unit = [&] {
        for (const MetricDef& m : kPerLayer)
          if (name == m.name) return std::string(m.unit);
        return std::string();
      }();
      values[name] = (unit == "s" || unit == "thread_s") ? v * scale : v;
    }
    const double builds = values["octree.list_builds"];
    const double hits = r.layer.count("octree.list_hits") ? r.layer["octree.list_hits"] : 0.0;
    values.erase("octree.list_hits");
    values["octree.list_hit_ratio"] = builds + hits > 0 ? hits / (builds + hits) : 0.0;
    const double pairs = values["expansion.m2l_pairs"];
    values["expansion.m2l_ns_per_pair"] =
        pairs > 0 ? values["expansion.m2l_s"] / pairs * 1e9 : 0.0;
    const double inter = values["gpusim.p2p_interactions"];
    values["gpusim.p2p_ns_per_interaction"] =
        inter > 0 ? values["gpusim.p2p_s"] / inter * 1e9 : 0.0;
    values["host.calib_ms"] = env.calib.median_seconds() * 1e3;
    values["host.raw_wall_s"] = raw_wall;
    values["host.cpu_s"] = cpu;
    values["host.steal_s"] = steal;
    values["host.trace_overhead"] = (r.traced_wall - r.untraced_wall) * scale;
    values["host.span_coverage"] = r.coverage;
  }

  // Annotations.
  std::ostringstream notes;
  notes << "{\"perfbench\": {\"workload\": " << json_string(env.opt.workload)
        << ", \"seed\": " << env.opt.seed << ", \"seconds\": "
        << json_number(env.opt.seconds) << ", \"trace\": " << env.opt.trace
        << ", \"smoke\": " << env.opt.smoke << ", \"threads\": "
        << env.opt.threads << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
        << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
        << ", \"commit\": " << json_string(commit)
        << ", \"calib_ms\": " << json_number(env.calib.median_seconds() * 1e3)
        << ", \"calib_samples\": " << env.calib.samples()
        << ", \"calib_scale\": " << json_number(scale)
        << ", \"steal_s\": " << json_number(steal)
        << ", \"cpu_s\": " << json_number(cpu)
        << ", \"raw_wall_s\": " << json_number(raw_wall)
        << ", \"episodes\": " << r.episodes << ", \"steps\": " << r.step.size()
        << ", \"step_tail_percentile\": " << json_number(100 * q_step)
        << ", \"bursts\": " << r.burst.size()
        << ", \"burst_tail_percentile\": " << json_number(100 * q_burst)
        << ", \"setups\": " << r.setup.size()
        << ", \"fingerprint\": " << json_string(r.fingerprint)
        << ", \"rel_err_tol\": " << json_number(r.rel_err_tol);
  for (const auto& [k, v] : r.notes) notes << ", " << json_string(k) << ": " << json_string(v);
  notes << ", \"gate_failures\": [";
  for (std::size_t i = 0; i < r.gate_failures.size(); ++i)
    notes << (i ? ", " : "") << json_string(r.gate_failures[i]);
  notes << "]}}";
  std::printf("%s\n", notes.str().c_str());

  const bool correct = r.gate_failures.empty() && r.failed == 0;
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricDef& m) {
    out << (first ? "" : ", ") << json_string(m.name) << ": {\"value\": "
        << json_number(values[m.name]) << ", \"unit\": " << json_string(m.unit)
        << "}";
    first = false;
  };
  if (env.opt.trace)
    for (const MetricDef& m : kPerLayer) emit(m);
  else
    for (const MetricDef& m : kEndToEnd) emit(m);
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
  for (const auto& f : r.gate_failures) std::fprintf(stderr, "FAIL: %s\n", f.c_str());
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
