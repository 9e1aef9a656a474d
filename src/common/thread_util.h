#ifndef OIJ_COMMON_THREAD_UTIL_H_
#define OIJ_COMMON_THREAD_UTIL_H_

#include <cstdint>
#include <string>

namespace oij {

/// Names the calling thread (visible in /proc and profilers).
void SetCurrentThreadName(const std::string& name);

/// Pins the calling thread to `cpu` when the platform supports it and the
/// machine has that many CPUs; silently a no-op otherwise. Joiner threads
/// are pinned per the NUMA placement plan (EngineOptions::numa).
void TryPinCurrentThreadTo(int cpu);

/// Number of logical CPUs visible to this process.
int NumCpus();

/// Progressive backoff for lock-free wait loops: a few pauses, then yields.
/// Keeps oversubscribed runs (more joiners than cores) from starving the
/// thread being waited on.
class Backoff {
 public:
  void Pause();
  void Reset() { count_ = 0; }

 private:
  uint32_t count_ = 0;
};

}  // namespace oij

#endif  // OIJ_COMMON_THREAD_UTIL_H_
