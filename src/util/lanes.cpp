#include "util/lanes.hpp"

namespace afmm {

int lane_width() {
#if defined(__x86_64__)
  static const int width = __builtin_cpu_supports("avx2") ? 4 : 2;
  return width;
#else
  return 2;
#endif
}

}  // namespace afmm
