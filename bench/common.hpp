// Shared machinery for the per-figure/table bench binaries.
//
// Most paper figures report *times*, not forces, so the benches use
// timing-only observation: the machine model supplies the virtual CPU time
// of the far-field task graph and the GPU SIMT model supplies the kernel
// times of the partitioned P2P work -- no numerics are executed unless an
// experiment's workload trajectory requires them. This keeps every bench
// runnable in seconds-to-minutes on one host core while exercising exactly
// the code paths the load balancer sees.
#pragma once

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <initializer_list>
#include <string>
#include <system_error>
#include <vector>

#include "balance/load_balancer.hpp"
#include "core/fmm_solver.hpp"
#include "dist/distributions.hpp"
#include "gpusim/p2p_executor.hpp"
#include "machine/machine.hpp"
#include "octree/octree.hpp"
#include "octree/traversal.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace afmm::bench {

// Percentile shorthands over util/stats.hpp's interpolating percentile(),
// so benches report medians and tail latencies through one definition
// instead of hand-sorting samples.
inline double p50(std::vector<double> sample) {
  return percentile(std::move(sample), 0.50);
}
inline double p99(std::vector<double> sample) {
  return percentile(std::move(sample), 0.99);
}

// Paper test system A: 2x Xeon X5670 (12 cores, 6 per socket) + Tesla C2050s.
inline CpuModelConfig system_a_cpu(int cores) {
  CpuModelConfig cpu;
  cpu.num_cores = cores;
  cpu.cores_per_socket = 6;
  return cpu;
}

// Paper test system B: 4x Xeon X7560 (32 cores, 8 per socket), no GPUs.
inline CpuModelConfig system_b_cpu(int cores) {
  CpuModelConfig cpu;
  cpu.num_cores = cores;
  cpu.cores_per_socket = 8;
  return cpu;
}

// Timing-only observation of one solve on `tree` (see file comment).
// Delegates to NodeSimulator::observe_step, so the observation respects the
// machine's CURRENT health: dead devices get no work, throttled clocks slow
// kernels, transfer retries are charged, and with no GPU left the near field
// is costed on the CPU -- healthy machines behave exactly as before.
inline ObservedStepTimes observe_tree(const AdaptiveOctree& tree,
                                      const NodeSimulator& node,
                                      const ExpansionContext& ctx,
                                      const TraversalConfig& traversal = {},
                                      int m2l_passes = 1,
                                      double flops_per_interaction = 20.0) {
  const auto lists = build_interaction_lists(tree, traversal);
  return node.observe_step(ctx, tree, lists, flops_per_interaction,
                           m2l_passes);
}

// Replays a recorded workload trajectory under one load-balancing strategy,
// producing the per-step series Figs. 8-10 report. Each step: rebin moved
// bodies, let the balancer act, observe the (virtual) solve times.
struct ReplayRecord {
  double compute_seconds = 0.0;
  double cpu_seconds = 0.0;
  double gpu_seconds = 0.0;
  double lb_seconds = 0.0;
  int S = 0;
  LbState state = LbState::kSearch;
  double total_seconds() const { return compute_seconds + lb_seconds; }
};

// `positions(step)` must return the body positions at time step `step` for
// step = 0 .. num_steps; the returned span only needs to stay valid until
// the next call.
template <typename PositionProvider>
std::vector<ReplayRecord> replay_strategy(
    PositionProvider&& positions, std::size_t num_steps,
    const TreeConfig& tree_config, const LoadBalancerConfig& lb_config,
    const NodeSimulator& node, const ExpansionContext& ctx,
    const TraversalConfig& traversal = {}, int m2l_passes = 1,
    double flops_per_interaction = 20.0) {
  std::vector<ReplayRecord> out;
  AdaptiveOctree tree;
  TreeConfig tc = tree_config;
  tc.leaf_capacity = lb_config.initial_S;
  tree.build(positions(0), tc);
  LoadBalancer balancer(lb_config, traversal);

  ObservedStepTimes observed =
      observe_tree(tree, node, ctx, traversal, m2l_passes,
                   flops_per_interaction);
  for (std::size_t step = 1; step <= num_steps; ++step) {
    ReplayRecord rec;
    const std::span<const Vec3> pos = positions(step);
    // Re-binning moved bodies is part of the position update every strategy
    // pays identically (the paper's Table II counts only balancing actions
    // as LB time), so it is charged to neither compute nor LB here.
    tree.rebin(pos);
    const auto lb = balancer.post_step(tree, pos, observed, node);
    rec.lb_seconds += lb.lb_seconds;
    rec.S = lb.S;
    rec.state = lb.state_after;

    observed = observe_tree(tree, node, ctx, traversal, m2l_passes,
                            flops_per_interaction);
    rec.compute_seconds = observed.compute_seconds();
    rec.cpu_seconds = observed.cpu_seconds;
    rec.gpu_seconds = observed.gpu_seconds;
    out.push_back(rec);
  }
  return out;
}

// ---- command-line handling -------------------------------------------------
//
// Benches take "--key value" pairs and nothing else, so
// `for b in build/bench/*; do $b; done` runs with defaults while full-scale
// runs stay one flag away. Parsing is strict: a malformed, out-of-range or
// negative numeric aborts with a clear message instead of silently running
// the wrong experiment, and validate_args() rejects unknown or valueless keys
// with a usage line listing every key the bench consumed.

namespace detail {

// Keys this binary has looked up (in lookup order), for the usage line.
inline std::vector<std::string>& known_keys() {
  static std::vector<std::string> keys;
  return keys;
}

inline void register_key(const std::string& key) {
  auto& keys = known_keys();
  if (std::find(keys.begin(), keys.end(), key) == keys.end())
    keys.push_back(key);
}

[[noreturn]] inline void arg_fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  const auto& keys = known_keys();
  if (!keys.empty()) {
    std::fprintf(stderr, "usage: [--<key> <value>]...\n");
    std::fprintf(stderr, "known keys:");
    for (const auto& k : keys) std::fprintf(stderr, " --%s", k.c_str());
    std::fprintf(stderr, "\n");
  }
  std::exit(2);
}

// Strict non-negative integer parse; `source` names the flag.
inline long parse_count(const std::string& text, const std::string& source) {
  if (text.empty()) arg_fail(source + ": empty value");
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0')
    arg_fail(source + ": '" + text + "' is not an integer");
  if (errno == ERANGE)
    arg_fail(source + ": '" + text + "' is out of range");
  if (value < 0)
    arg_fail(source + ": " + text + " is negative");
  return value;
}

}  // namespace detail

inline long arg_or(int argc, char** argv, const std::string& key, long fallback) {
  detail::register_key(key);
  for (int i = 1; i + 1 < argc; ++i)
    if (std::string(argv[i]) == "--" + key)
      return detail::parse_count(argv[i + 1], "--" + key);
  return fallback;
}

// String-valued variant of arg_or.
inline std::string arg_str_or(int argc, char** argv, const std::string& key,
                              const std::string& fallback) {
  detail::register_key(key);
  for (int i = 1; i + 1 < argc; ++i)
    if (std::string(argv[i]) == "--" + key) return argv[i + 1];
  return fallback;
}

// String-valued lookup restricted to `choices`, the first being the default;
// any other value aborts with the list of accepted ones.
inline std::string arg_choice(int argc, char** argv, const std::string& key,
                              std::initializer_list<const char*> choices) {
  const std::string value = arg_str_or(argc, argv, key, *choices.begin());
  std::string accepted;
  for (const char* c : choices) {
    if (value == c) return value;
    accepted += (accepted.empty() ? "" : "|") + std::string(c);
  }
  detail::arg_fail("--" + key + ": unknown value '" + value + "' (" +
                   accepted + ")");
}

// Where this bench writes its CSV/JSON artifacts: --out <dir>, default
// ./results so repeated runs never litter the repo root. The directory is
// created on lookup (best effort, matching mirror_csv: a read-only
// filesystem downgrades the run to stdout-only instead of failing).
// Call BEFORE validate_args(), like every other lookup.
inline std::string out_dir(int argc, char** argv) {
  const std::string dir = arg_str_or(argc, argv, "out", "results");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return dir;
}

// Call AFTER every arg_or() lookup: rejects keys the bench never consumes
// (catches typos like --step for --steps), flags without a value, and bare
// positional arguments.
inline void validate_args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0)
      detail::arg_fail("unexpected positional argument '" + arg + "'");
    const std::string key = arg.substr(2);
    const auto& keys = detail::known_keys();
    if (std::find(keys.begin(), keys.end(), key) == keys.end())
      detail::arg_fail("unknown option '" + arg + "'");
    if (i + 1 >= argc) detail::arg_fail(arg + ": missing value");
    ++i;  // skip the value
  }
}

}  // namespace afmm::bench
