// Test helper: the axes the bit-identical replay suites run over -- the
// OpenMP thread count, and the node's overlap mode (the serialized
// max(CPU, GPU) timeline or the task-DAG one).
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "machine/machine.hpp"
#include "omp_threads.hpp"

namespace afmm {

// Instantiate with replay_axes() and replay_axes_name.
class ReplayTest
    : public ::testing::TestWithParam<std::tuple<int, OverlapMode>> {
 protected:
  OverlapMode overlap() const { return std::get<1>(GetParam()); }

 private:
  OmpThreads threads_{std::get<0>(GetParam())};
};

inline auto replay_axes() {
  return ::testing::Combine(
      ::testing::Values(1, 4),
      ::testing::Values(OverlapMode::kOff, OverlapMode::kOn));
}

inline std::string replay_axes_name(
    const ::testing::TestParamInfo<ReplayTest::ParamType>& info) {
  const auto [threads, mode] = info.param;
  return std::to_string(threads) +
         (mode == OverlapMode::kOn ? "threads_overlap" : "threads_serial");
}

}  // namespace afmm
