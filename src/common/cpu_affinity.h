// Portable wrapper over thread->core pinning.
//
// Core pinning is a wall-clock knob only: it never touches virtual time, so
// every deterministic bench column is identical with pinning on or off (and
// exp15 checks exactly that). It exists because the shard-confined executor
// threads are cache-hot on their shard's FTL state, and letting the kernel
// migrate them across cores discards that locality; pinning is opt-in and
// best-effort -- an unsupported platform or a denied affinity call degrades
// to the unpinned behavior instead of failing the run.

#ifndef FLASHDB_COMMON_CPU_AFFINITY_H_
#define FLASHDB_COMMON_CPU_AFFINITY_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace flashdb {

/// True when PinCurrentThreadToCore can succeed on this platform.
bool CpuPinningSupported();

/// Cores visible to this process (>= 1; falls back to 1 when unknown).
uint32_t NumAvailableCores();

/// Pins the calling thread to `core` (0-based). Returns NotSupported on
/// platforms without an affinity syscall and IOError when the kernel
/// rejects the mask (e.g. core outside the process's cpuset).
Status PinCurrentThreadToCore(uint32_t core);

/// Executor pin list for `workers` workers: worker i -> core i mod
/// NumAvailableCores(). Empty (workers unpinned) when pinning is unsupported.
std::vector<int> RoundRobinWorkerCores(uint32_t workers);

}  // namespace flashdb

#endif  // FLASHDB_COMMON_CPU_AFFINITY_H_
