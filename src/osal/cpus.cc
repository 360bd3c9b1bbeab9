#include "osal/cpus.h"

#include <sched.h>

#include <algorithm>
#include <thread>

namespace rr::osal {

size_t UsableCpus() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    return std::max(1, CPU_COUNT(&mask));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace rr::osal
