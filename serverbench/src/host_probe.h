#ifndef SERVERBENCH_HOST_PROBE_H_
#define SERVERBENCH_HOST_PROBE_H_

#include <cstdint>

namespace serverbench {

/// A fixed kernel of heap-allocating work that shares no code with the
/// library. It builds and reads a fresh 4000-entry std::unordered_map, a
/// 1500-entry std::map keyed by strings, and 3000 small std::vectors, all
/// in this process's heap. Its time tracks how fast the server's own
/// heap-heavy code runs at the moment, which on a shared host swings by
/// 1.5x or more within a run and between runs (README.md, "Timing").
class HeapProbe {
 public:
  /// Runs the kernel once; returns its wall time in µs.
  double RunUs();

  /// The kernel time every scaled timing is scaled to: a scaled time is
  /// the measured time times kReferenceUs / (the kernel's time at that
  /// moment).
  static constexpr double kReferenceUs = 1000;

 private:
  uint64_t sink_ = 0;
};

}  // namespace serverbench

#endif  // SERVERBENCH_HOST_PROBE_H_
