// How many CPUs this process may run on.
#pragma once

#include <cstddef>

namespace rr::osal {

// CPUs in the calling thread's affinity mask (sched_getaffinity), or
// std::thread::hardware_concurrency() when the mask cannot be read; at
// least 1. A process confined by taskset or a cpuset sizes its thread
// pools from this, not from the machine's CPU count.
size_t UsableCpus();

}  // namespace rr::osal
