// Test helper: run a scope at a fixed OpenMP thread count.
#pragma once

#include <omp.h>

namespace afmm {

// Sets the calling thread's OpenMP team size for later parallel regions and
// restores the previous value on scope exit.
class OmpThreads {
 public:
  explicit OmpThreads(int n) : saved_(omp_get_max_threads()) {
    omp_set_num_threads(n);
  }
  ~OmpThreads() { omp_set_num_threads(saved_); }
  OmpThreads(const OmpThreads&) = delete;
  OmpThreads& operator=(const OmpThreads&) = delete;

 private:
  int saved_;
};

}  // namespace afmm
