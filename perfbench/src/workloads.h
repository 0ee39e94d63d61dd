#pragma once

// The benchmark's three workloads. Each one runs batches of ops
// through the program's own entry points (hitlist::Pipeline::run_day,
// scan::ScanEngine) with no tracing, and can replay the same days
// through ReplayPipeline / a traced ScanEngine for the per-layer
// numbers and the digest check. See perfbench/README.md for why each
// workload exists and which layer it loads.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engine/engine.h"
#include "replay.h"

namespace perfbench {

/// One day (op) of a workload, timed or replayed.
struct OpRecord {
  // "op" timed untraced, "traced" timed replay, "warmup" untimed
  // untraced, "replay" untimed replay (digest check), "history" the
  // days a batch needs before its first op.
  const char* kind = "op";
  int day = -1;
  double ms = 0.0;
  std::uint64_t allocs = 0;
  std::uint64_t probes = 0;
  std::uint64_t digest = 0;
  std::uint32_t span = kNoParent;  // root span of a replayed record
  PrecisionCount precision;        // replayed records only
};

struct SetupRecord {
  double universe_ms = 0.0;
  double construct_ms = 0.0;  // layer construction
  double history_ms = 0.0;    // days and syncs before the first op
};

struct Recorder {
  Recorder(std::size_t span_capacity, AllocProbe probe)
      : tracer(span_capacity, probe), allocs(probe) {}

  Tracer tracer;
  AllocProbe allocs;
  std::vector<OpRecord> records;
};

struct WorkloadInfo {
  double scale = 1.0;
  std::string protocols;
  unsigned retries = 0;
  unsigned apd_window = 3;
  int history_day = 0;  // last day run before the first op
  int first_day = 0;    // op days cycle through [first_day, last_day]
  int last_day = 0;
  int ops_per_batch = 1;
  int warmup_window = 1;  // ops per warm-up steadiness window
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual WorkloadInfo info() const = 0;

  /// Build everything the first timed op needs (universe, layers,
  /// history), replacing any earlier state.
  virtual SetupRecord setup(Recorder& rec) = 0;

  /// One batch of untraced ops through the program's entry points.
  virtual void run_batch(Recorder& rec, const char* kind) = 0;

  /// Replay the days of the last run_batch with spans.
  virtual void replay_batch(Recorder& rec, const char* kind) = 0;

  /// Untimed digest check: replay every distinct op day once.
  virtual void replay_all(Recorder& rec) = 0;

  /// Traced run only: replay the history too when the ops skip layers
  /// the history exercised (rescan), so every layer gets a figure.
  virtual void replay_history(Recorder& rec) { (void)rec; }
};

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed,
                                        v6h::engine::Engine* engine);

}  // namespace perfbench
