// Fixture: a suppressed call and a name that is not a call are clean.
#include <thread>

// Reports the machine's size, not a pool's.
unsigned MachineCpus() {
  // rr-lint: allow(hardware-concurrency)
  return std::thread::hardware_concurrency();
}

unsigned hardware_concurrency_hint = 0;
