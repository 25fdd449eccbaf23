#ifndef SERVERBENCH_TRACE_H_
#define SERVERBENCH_TRACE_H_

#include "session.h"

namespace serverbench {

/// The traced mode: serves the workload through QueryServer's API with a
/// span around every call, then replays the same request stream through
/// each layer's public functions on private copies, and prints the
/// per-layer metrics. Never mixed with a timed run.
int RunTraced(const RunOptions& options);

}  // namespace serverbench

#endif  // SERVERBENCH_TRACE_H_
