#include "common/cpu_affinity.h"

#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace flashdb {

bool CpuPinningSupported() {
#if defined(__linux__)
  return true;
#else
  return false;
#endif
}

uint32_t NumAvailableCores() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1u : static_cast<uint32_t>(n);
}

Status PinCurrentThreadToCore(uint32_t core) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(core), &set);
  const int rc = pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
  if (rc != 0) {
    return Status::IOError("pthread_setaffinity_np(core=" +
                           std::to_string(core) +
                           ") failed: " + std::to_string(rc));
  }
  return Status::OK();
#else
  (void)core;
  return Status::NotSupported("core pinning not supported on this platform");
#endif
}

std::vector<int> RoundRobinWorkerCores(uint32_t workers) {
  if (!CpuPinningSupported()) return {};
  const uint32_t cores = NumAvailableCores();
  std::vector<int> pins(workers);
  for (uint32_t i = 0; i < workers; ++i) pins[i] = static_cast<int>(i % cores);
  return pins;
}

}  // namespace flashdb
