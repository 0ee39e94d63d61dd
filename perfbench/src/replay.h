#pragma once

// The traced replay of the day loop. ReplayPipeline owns the same
// layer objects hitlist::Pipeline owns, sizes them with the same
// reserve bounds, and calls their public functions in the order
// Pipeline::run_day calls them, recording one span around each call.
// Its day outputs must digest identically to the untraced run_day of
// the same seed (checked per op by perfbench/run.py), so the per-layer
// numbers it yields describe the program the end-to-end numbers time.
//
// Spans live in a preallocated in-memory Tracer and are written out
// after the run; each span also records the heap allocations made
// inside it, read through the binary's counting allocator.

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "apd/apd.h"
#include "engine/engine.h"
#include "hitlist/day_scratch.h"
#include "hitlist/pipeline.h"
#include "hitlist/target_store.h"
#include "netsim/network_sim.h"
#include "netsim/universe.h"
#include "scan/scan_engine.h"
#include "scan/scan_frame.h"
#include "sources/sources.h"

namespace perfbench {

/// Reads the process-wide heap allocation count.
using AllocProbe = std::uint64_t (*)();

/// Monotonic nanoseconds (steady_clock).
std::uint64_t now_ns();

inline constexpr std::uint32_t kNoParent = 0xffffffffu;

struct SpanRecord {
  const char* name = nullptr;  // borrowed literal
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t allocs = 0;  // heap allocations inside the span
  std::uint32_t parent = kNoParent;
  std::uint32_t nargs = 0;
  std::array<const char*, 4> keys{};
  std::array<std::int64_t, 4> values{};
};

class Tracer {
 public:
  Tracer(std::size_t capacity, AllocProbe allocs);

  std::uint32_t begin(const char* name);
  void end(std::uint32_t id);
  void arg(std::uint32_t id, const char* key, std::int64_t value);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  const SpanRecord& span(std::uint32_t id) const { return spans_[id]; }

 private:
  AllocProbe allocs_;
  std::vector<SpanRecord> spans_;
  std::uint32_t open_ = kNoParent;  // innermost open span
};

/// RAII span: opens on construction, closes on destruction.
class Span {
 public:
  Span(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.begin(name)) {}
  ~Span() { tracer_.end(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void arg(const char* key, std::int64_t value) {
    tracer_.arg(id_, key, value);
  }
  std::uint32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

/// The counts hitlist::Pipeline::DayReport carries.
struct DayCounts {
  int day = -1;
  std::size_t new_addresses = 0;
  std::size_t aliased_prefixes = 0;
  std::size_t scanned_targets = 0;
};

class ReplayPipeline {
 public:
  ReplayPipeline(const v6h::netsim::Universe& universe,
                 v6h::netsim::NetworkSim& sim,
                 const v6h::hitlist::PipelineOptions& options,
                 v6h::engine::Engine* engine);

  /// One day, layer by layer, in Pipeline::run_day's order; every
  /// layer call gets a span (children of whatever span is open).
  DayCounts run_day(int day, Tracer& tracer);

  const v6h::hitlist::TargetStore& store() const { return store_; }
  const v6h::hitlist::DayDelta& last_delta() const { return delta_; }
  const v6h::hitlist::AliasFilter& filter() const { return filter_; }
  const v6h::scan::ScanFrame& frame() const { return frame_; }

 private:
  v6h::netsim::NetworkSim* sim_;
  v6h::hitlist::PipelineOptions options_;
  v6h::engine::Engine* engine_;
  v6h::sources::SourceSimulator sources_;
  v6h::apd::AliasDetector detector_;
  v6h::apd::CandidateCounter counter_;
  v6h::scan::ScanEngine scan_engine_;
  v6h::hitlist::TargetStore store_;
  v6h::hitlist::AliasFilter filter_;
  v6h::hitlist::DayDelta delta_;
  v6h::scan::ScanFrame frame_;
  v6h::hitlist::DayScratch scratch_;
};

/// Digest of one day's outputs: the DayReport counts, the appended
/// rows, the verdict transitions, and the scan frame. Pipeline and
/// replay are digested by the same function from their public views.
std::uint64_t day_digest(const DayCounts& counts,
                         const v6h::hitlist::TargetStore& store,
                         const v6h::hitlist::DayDelta& delta,
                         const v6h::scan::ScanFrame& frame);

/// Digest of one scan frame (the rescan workload's op output).
std::uint64_t frame_digest(const v6h::scan::ScanFrame& frame);

/// Ground truth for APD verdicts: each aliased prefix is sampled at
/// kSamples pseudo-random addresses, and counts as correct when every
/// sample lies in truly aliased space, or in an honest carve-out that
/// is more specific than the prefix (counted in `islands`).
struct PrecisionCount {
  std::uint64_t checked = 0;
  std::uint64_t correct = 0;
  std::uint64_t islands = 0;
};
PrecisionCount verdict_precision(const v6h::netsim::Universe& universe,
                                 const std::vector<v6h::ipv6::Prefix>& aliased);

}  // namespace perfbench
