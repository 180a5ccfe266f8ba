#include "state/auditor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "kernels/gravity.hpp"
#include "kernels/stokeslet.hpp"

namespace afmm {

namespace {

// Bounded formatted append so violation strings stay cheap.
template <typename... Args>
void violation(AuditReport& report, const char* fmt, Args... args) {
  char buf[256];
  std::snprintf(buf, sizeof buf, fmt, args...);
  report.violations.emplace_back(buf);
}

}  // namespace

std::string AuditReport::summary() const {
  if (violations.empty()) return "ok";
  if (violations.size() == 1) return violations.front();
  return violations.front() + " (+" +
         std::to_string(violations.size() - 1) + " more)";
}

void audit_tree(const AdaptiveOctree& tree, int S, double leaf_capacity_slack,
                AuditReport& report) {
  if (tree.empty()) {
    if (tree.num_bodies() > 0)
      violation(report, "tree: %zu bodies but no nodes", tree.num_bodies());
    return;
  }
  const std::size_t n = tree.num_bodies();
  const auto& root = tree.node(tree.root());
  if (root.begin != 0 || root.count != n)
    violation(report, "tree: root span [%u,+%u) does not cover %zu bodies",
              root.begin, root.count, n);

  const auto perm = tree.perm();
  std::vector<char> seen(n, 0);
  for (auto t : perm) {
    if (t >= n || seen[t]) {
      violation(report, "tree: perm is not a permutation (index %u)", t);
      break;
    }
    seen[t] = 1;
  }

  // Walk the EFFECTIVE tree only: hidden children below a collapsed node
  // legitimately carry stale spans and must not be judged.
  const int num_nodes = tree.num_nodes();
  std::vector<int> stack{tree.root()};
  while (!stack.empty() && report.violations.size() < 16) {
    const int id = stack.back();
    stack.pop_back();
    const auto& node = tree.node(id);
    if (!std::isfinite(node.half) || node.half <= 0.0 ||
        !std::isfinite(node.center.x) || !std::isfinite(node.center.y) ||
        !std::isfinite(node.center.z)) {
      violation(report, "tree: node %d has non-finite geometry", id);
      continue;
    }
    if (static_cast<std::size_t>(node.begin) + node.count > n) {
      violation(report, "tree: node %d span [%u,+%u) exceeds %zu bodies", id,
                node.begin, node.count, n);
      continue;
    }
    if (tree.is_effective_leaf(id)) {
      if (S > 0 && leaf_capacity_slack > 0.0 &&
          static_cast<double>(node.count) >
              leaf_capacity_slack * static_cast<double>(S))
        violation(report, "tree: leaf %d holds %u bodies (> %.0fx S=%d)", id,
                  node.count, leaf_capacity_slack, S);
      continue;
    }
    std::uint32_t at = node.begin;
    std::uint32_t sum = 0;
    bool children_ok = true;
    for (int o = 0; o < 8; ++o) {
      const int cid = node.children[o];
      if (cid < 0 || cid >= num_nodes) {
        violation(report, "tree: node %d child %d out of range (%d)", id, o,
                  cid);
        children_ok = false;
        break;
      }
      const auto& c = tree.node(cid);
      if (c.parent != id)
        violation(report, "tree: node %d child %d has parent %d", id, cid,
                  c.parent);
      if (c.level != node.level + 1)
        violation(report, "tree: node %d child %d level %d != %d", id, cid,
                  c.level, node.level + 1);
      if (c.half != node.half * 0.5)
        violation(report, "tree: node %d child %d half-size mismatch", id, cid);
      if (!(c.center == child_box_center(node.center, node.half, o)))
        violation(report, "tree: node %d child %d center mismatch", id, cid);
      if (c.begin != at)
        violation(report, "tree: node %d child spans do not tile (child %d)",
                  id, cid);
      at += c.count;
      sum += c.count;
    }
    if (children_ok && sum != node.count)
      violation(report, "tree: node %d children sum %u != count %u", id, sum,
                node.count);
    if (children_ok)
      for (int o = 7; o >= 0; --o) stack.push_back(node.children[o]);
  }
}

void audit_finite(std::span<const Vec3> values, const char* label,
                  AuditReport& report) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    const Vec3& v = values[i];
    if (!std::isfinite(v.x) || !std::isfinite(v.y) || !std::isfinite(v.z)) {
      violation(report, "%s[%zu] is not finite", label, i);
      return;  // one sentinel per array is enough to trigger recovery
    }
  }
}

void audit_finite(std::span<const double> values, const char* label,
                  AuditReport& report) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (!std::isfinite(values[i])) {
      violation(report, "%s[%zu] is not finite", label, i);
      return;
    }
  }
}

void audit_cost_model(const CostModel& model, AuditReport& report) {
  const CostCoefficients& c = model.coefficients();
  const struct {
    const char* name;
    double value;
  } coefs[] = {
      {"p2m_per_body", c.p2m_per_body}, {"m2m", c.m2m},
      {"m2l", c.m2l},                   {"l2l", c.l2l},
      {"l2p_per_body", c.l2p_per_body}, {"p2p", c.p2p},
      {"p2p_cpu", c.p2p_cpu},
  };
  for (const auto& [name, value] : coefs)
    if (!std::isfinite(value) || value < 0.0)
      violation(report, "cost model: %s = %g", name, value);
  if (!std::isfinite(c.cpu_efficiency) || c.cpu_efficiency <= 0.0 ||
      c.cpu_efficiency > 1.0)
    violation(report, "cost model: cpu_efficiency = %g", c.cpu_efficiency);
}

void audit_sampled_gravity(std::span<const Vec3> positions,
                           std::span<const double> masses,
                           std::span<const Vec3> accel, double grav_const,
                           double softening, int samples, double rel_tol,
                           AuditReport& report) {
  const std::size_t n = positions.size();
  if (n < 2 || samples <= 0 || accel.size() != n || masses.size() != n) return;
  const GravityKernel kernel(softening);
  const std::size_t stride =
      std::max<std::size_t>(1, n / static_cast<std::size_t>(samples));
  int audited = 0;
  for (std::size_t i = 0; i < n && audited < samples; i += stride, ++audited) {
    GravityAccum acc;
    for (std::size_t j = 0; j < n; ++j)
      kernel.accumulate(positions[i], static_cast<std::uint32_t>(i),
                        {positions[j], masses[j]},
                        static_cast<std::uint32_t>(j), acc);
    const Vec3 direct = grav_const * acc.grad;
    const double err = norm(accel[i] - direct);
    const double tol = rel_tol * (norm(direct) + 1e-12);
    if (!(err <= tol)) {  // NaN compares false: caught here too
      violation(report,
                "force audit: body %zu off by %.3g (tol %.3g, |direct| %.3g)",
                i, err, tol, norm(direct));
      return;
    }
  }
}

void audit_sampled_stokes(std::span<const Vec3> solve_positions,
                          std::span<const Vec3> forces,
                          std::span<const Vec3> velocities, double mobility,
                          double epsilon, int samples, double rel_tol,
                          AuditReport& report) {
  const std::size_t n = solve_positions.size();
  if (n < 2 || samples <= 0 || velocities.size() != n || forces.size() != n)
    return;
  const StokesletKernel kernel(epsilon);
  const std::size_t stride =
      std::max<std::size_t>(1, n / static_cast<std::size_t>(samples));
  int audited = 0;
  for (std::size_t i = 0; i < n && audited < samples; i += stride, ++audited) {
    StokesletAccum acc;
    for (std::size_t j = 0; j < n; ++j)
      kernel.accumulate(solve_positions[i], static_cast<std::uint32_t>(i),
                        {solve_positions[j], forces[j]},
                        static_cast<std::uint32_t>(j), acc);
    const Vec3 direct = mobility * acc.u;
    const double err = norm(velocities[i] - direct);
    const double tol = rel_tol * (norm(direct) + 1e-12);
    if (!(err <= tol)) {
      violation(report,
                "stokes audit: body %zu off by %.3g (tol %.3g, |direct| %.3g)",
                i, err, tol, norm(direct));
      return;
    }
  }
}

void audit_momentum(std::span<const Vec3> accel, std::span<const double> masses,
                    double rel_tol, AuditReport& report) {
  if (accel.empty() || masses.size() != accel.size() || rel_tol <= 0.0) return;
  Vec3 total{};
  double scale = 0.0;
  for (std::size_t i = 0; i < accel.size(); ++i) {
    const Vec3 f = masses[i] * accel[i];
    total += f;
    scale += norm(f);
  }
  const double drift = norm(total);
  const double tol = rel_tol * (scale + 1e-12);
  if (!(drift <= tol))  // NaN compares false: caught here too
    violation(report, "momentum audit: |sum F| = %.3g exceeds tol %.3g",
              drift, tol);
}

void audit_state_checksum(std::uint64_t computed, std::uint64_t stored,
                          AuditReport& report) {
  if (computed != stored)
    violation(report,
              "state checksum mismatch: %016llx != stored %016llx",
              static_cast<unsigned long long>(computed),
              static_cast<unsigned long long>(stored));
}

}  // namespace afmm
