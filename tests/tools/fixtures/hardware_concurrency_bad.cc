// Fixture: pool sizing from the machine's CPU count fires
// hardware-concurrency.
#include <thread>

unsigned Workers() {
  return std::thread::hardware_concurrency();  // finding
}

unsigned Shards() {
  return std::thread::hardware_concurrency() / 4;  // finding
}

// Commented-out code must NOT fire:
// return std::thread::hardware_concurrency();
const char* kDoc = "hardware_concurrency() in a string must not fire";
