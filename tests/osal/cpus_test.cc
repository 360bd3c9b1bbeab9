#include "osal/cpus.h"

#include <gtest/gtest.h>
#include <sched.h>

#include <thread>

namespace rr::osal {
namespace {

TEST(UsableCpusTest, CountsTheAffinityMask) {
  cpu_set_t current;
  ASSERT_EQ(sched_getaffinity(0, sizeof(current), &current), 0);
  EXPECT_EQ(UsableCpus(), static_cast<size_t>(CPU_COUNT(&current)));

  // A thread confined to one CPU sees one, whatever the machine has.
  std::thread([&current] {
    int cpu = 0;
    while (!CPU_ISSET(cpu, &current)) ++cpu;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    EXPECT_EQ(UsableCpus(), 1u);
  }).join();
}

}  // namespace
}  // namespace rr::osal
