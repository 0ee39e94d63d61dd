#include "workloads.h"

#include "hitlist/pipeline.h"
#include "netsim/network_sim.h"
#include "netsim/universe.h"
#include "scan/probe_schedule.h"
#include "scan/scan_engine.h"
#include "scan/scan_frame.h"

namespace perfbench {

using namespace v6h;

namespace {

double ms_between(std::uint64_t start_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-6;
}

DayCounts counts_of(const hitlist::Pipeline::DayReport& report) {
  DayCounts counts;
  counts.day = report.day;
  counts.new_addresses = report.new_addresses;
  counts.aliased_prefixes = report.aliased_prefixes;
  counts.scanned_targets = report.scanned_targets;
  return counts;
}

// Untraced run_day, timed from outside with allocations and probes.
OpRecord timed_run_day(hitlist::Pipeline& pipeline, netsim::NetworkSim& sim,
                       int day, const char* kind, AllocProbe allocs) {
  OpRecord op;
  op.kind = kind;
  op.day = day;
  const std::uint64_t allocs_before = allocs();
  const std::uint64_t probes_before = sim.probes_sent();
  const std::uint64_t start = now_ns();
  const auto report = pipeline.run_day(day);
  const std::uint64_t end = now_ns();
  op.allocs = allocs() - allocs_before;
  op.probes = sim.probes_sent() - probes_before;
  op.ms = ms_between(start, end);
  op.digest = day_digest(counts_of(report), pipeline.store(),
                         pipeline.last_delta(), pipeline.frame());
  return op;
}

// Replayed day under a root span named `root` (the op's span); the
// precision check runs after the span closes, outside every timing.
OpRecord traced_run_day(ReplayPipeline& replay, const netsim::Universe& universe,
                        netsim::NetworkSim& sim, int day, const char* kind,
                        const char* root, Recorder& rec) {
  OpRecord op;
  op.kind = kind;
  op.day = day;
  const std::uint64_t probes_before = sim.probes_sent();
  DayCounts counts;
  {
    Span span(rec.tracer, root);
    span.arg("day", day);
    op.span = span.id();
    counts = replay.run_day(day, rec.tracer);
  }
  const SpanRecord& span = rec.tracer.span(op.span);
  op.ms = ms_between(span.start_ns, span.end_ns);
  op.allocs = span.allocs;
  op.probes = sim.probes_sent() - probes_before;
  op.digest =
      day_digest(counts, replay.store(), replay.last_delta(), replay.frame());
  op.precision = verdict_precision(universe, replay.filter().prefixes());
  return op;
}

netsim::UniverseParams universe_params(double scale, std::uint64_t seed) {
  netsim::UniverseParams params;
  params.scale = scale;
  params.seed = seed;
  return params;
}

// ------------------------------------------------------------ steady
// Warm daily cycles of the full pipeline at scale 1.0: a campaign is
// one cold history day at 240 followed by the 30 warm days 241..270
// (the last day before the sources' growth clamps at 270).
class Steady final : public Workload {
 public:
  static constexpr int kHistoryDay = 240;
  static constexpr int kFirstDay = 241;
  static constexpr int kLastDay = 270;

  Steady(std::uint64_t seed, engine::Engine* engine)
      : params_(universe_params(1.0, seed)), engine_(engine) {}

  WorkloadInfo info() const override {
    WorkloadInfo info;
    info.scale = params_.scale;
    info.protocols = scan::protocols_to_string(options_.schedule.protocols);
    info.retries = options_.schedule.retries;
    info.apd_window = options_.apd.window_days;
    info.history_day = kHistoryDay;
    info.first_day = kFirstDay;
    info.last_day = kLastDay;
    info.ops_per_batch = kLastDay - kFirstDay + 1;
    info.warmup_window = info.ops_per_batch;
    return info;
  }

  SetupRecord setup(Recorder& rec) override {
    pipeline_.reset();
    sim_.reset();
    universe_.reset();
    SetupRecord setup;
    const std::uint64_t t0 = now_ns();
    universe_ = std::make_unique<netsim::Universe>(params_, engine_);
    sim_ = std::make_unique<netsim::NetworkSim>(*universe_);
    const std::uint64_t t1 = now_ns();
    pipeline_ = std::make_unique<hitlist::Pipeline>(*universe_, *sim_,
                                                    options_, engine_);
    const std::uint64_t t2 = now_ns();
    rec.records.push_back(timed_run_day(*pipeline_, *sim_, kHistoryDay,
                                        "history", rec.allocs));
    const std::uint64_t t3 = now_ns();
    setup.universe_ms = ms_between(t0, t1);
    setup.construct_ms = ms_between(t1, t2);
    setup.history_ms = ms_between(t2, t3);
    return setup;
  }

  void run_batch(Recorder& rec, const char* kind) override {
    if (!pipeline_) {
      pipeline_ = std::make_unique<hitlist::Pipeline>(*universe_, *sim_,
                                                      options_, engine_);
      rec.records.push_back(timed_run_day(*pipeline_, *sim_, kHistoryDay,
                                          "history", rec.allocs));
    }
    for (int day = kFirstDay; day <= kLastDay; ++day) {
      rec.records.push_back(
          timed_run_day(*pipeline_, *sim_, day, kind, rec.allocs));
    }
    pipeline_.reset();
  }

  void replay_batch(Recorder& rec, const char* kind) override {
    std::unique_ptr<ReplayPipeline> replay;
    {
      Span span(rec.tracer, "hitlist.construct");
      replay = std::make_unique<ReplayPipeline>(*universe_, *sim_, options_,
                                                engine_);
    }
    rec.records.push_back(traced_run_day(*replay, *universe_, *sim_,
                                         kHistoryDay, "history", "history",
                                         rec));
    for (int day = kFirstDay; day <= kLastDay; ++day) {
      rec.records.push_back(
          traced_run_day(*replay, *universe_, *sim_, day, kind, "day", rec));
    }
  }

  void replay_all(Recorder& rec) override { replay_batch(rec, "replay"); }

 private:
  netsim::UniverseParams params_;
  engine::Engine* engine_;
  hitlist::PipelineOptions options_;
  std::unique_ptr<netsim::Universe> universe_;
  std::unique_ptr<netsim::NetworkSim> sim_;
  std::unique_ptr<hitlist::Pipeline> pipeline_;  // next batch's, if built
};

// ------------------------------------------------------------ ingest
// Restarts: each op constructs the layers afresh and runs one first
// day at the horizon, which ingests the whole 270-day history.
class Ingest final : public Workload {
 public:
  static constexpr int kDay = 270;

  Ingest(std::uint64_t seed, engine::Engine* engine)
      : params_(universe_params(1.0, seed)), engine_(engine) {}

  WorkloadInfo info() const override {
    WorkloadInfo info;
    info.scale = params_.scale;
    info.protocols = scan::protocols_to_string(options_.schedule.protocols);
    info.retries = options_.schedule.retries;
    info.apd_window = options_.apd.window_days;
    info.history_day = -1;
    info.first_day = kDay;
    info.last_day = kDay;
    info.ops_per_batch = 1;
    info.warmup_window = 5;
    return info;
  }

  SetupRecord setup(Recorder&) override {
    sim_.reset();
    universe_.reset();
    SetupRecord setup;
    const std::uint64_t t0 = now_ns();
    universe_ = std::make_unique<netsim::Universe>(params_, engine_);
    sim_ = std::make_unique<netsim::NetworkSim>(*universe_);
    setup.universe_ms = ms_between(t0, now_ns());
    return setup;
  }

  void run_batch(Recorder& rec, const char* kind) override {
    OpRecord op;
    op.kind = kind;
    op.day = kDay;
    std::unique_ptr<hitlist::Pipeline> pipeline;
    const std::uint64_t allocs_before = rec.allocs();
    const std::uint64_t probes_before = sim_->probes_sent();
    const std::uint64_t start = now_ns();
    pipeline = std::make_unique<hitlist::Pipeline>(*universe_, *sim_, options_,
                                                   engine_);
    const auto report = pipeline->run_day(kDay);
    const std::uint64_t end = now_ns();
    op.allocs = rec.allocs() - allocs_before;
    op.probes = sim_->probes_sent() - probes_before;
    op.ms = ms_between(start, end);
    op.digest = day_digest(counts_of(report), pipeline->store(),
                           pipeline->last_delta(), pipeline->frame());
    rec.records.push_back(op);
  }

  void replay_batch(Recorder& rec, const char* kind) override {
    OpRecord op;
    op.kind = kind;
    op.day = kDay;
    std::unique_ptr<ReplayPipeline> replay;
    const std::uint64_t probes_before = sim_->probes_sent();
    DayCounts counts;
    {
      Span span(rec.tracer, "day");
      span.arg("day", kDay);
      op.span = span.id();
      {
        Span construct(rec.tracer, "hitlist.construct");
        replay = std::make_unique<ReplayPipeline>(*universe_, *sim_, options_,
                                                  engine_);
      }
      counts = replay->run_day(kDay, rec.tracer);
    }
    const SpanRecord& span = rec.tracer.span(op.span);
    op.ms = ms_between(span.start_ns, span.end_ns);
    op.allocs = span.allocs;
    op.probes = sim_->probes_sent() - probes_before;
    op.digest = day_digest(counts, replay->store(), replay->last_delta(),
                           replay->frame());
    op.precision = verdict_precision(*universe_, replay->filter().prefixes());
    rec.records.push_back(op);
  }

  void replay_all(Recorder& rec) override { replay_batch(rec, "replay"); }

 private:
  netsim::UniverseParams params_;
  engine::Engine* engine_;
  hitlist::PipelineOptions options_;
  std::unique_ptr<netsim::Universe> universe_;
  std::unique_ptr<netsim::NetworkSim> sim_;
};

// ------------------------------------------------------------ rescan
// The longitudinal scan: the hitlist is frozen by one history day at
// 270 (scale 5), then each op is one later day of ScanEngine::sync +
// scan_store over every de-aliased row, all five protocols with two
// retries. Op days cycle through a 180-day (six-month) window; each
// cycle starts from a resolution table synced back to day 270 outside
// the timing, so its first day costs what the first cycle's did
// instead of re-resolving 180 days of address rotation at once.
class Rescan final : public Workload {
 public:
  static constexpr int kHistoryDay = 270;
  static constexpr int kFirstDay = 271;
  static constexpr int kLastDay = 450;
  static constexpr int kBatch = 30;

  Rescan(std::uint64_t seed, engine::Engine* engine)
      : params_(universe_params(5.0, seed)), engine_(engine) {
    options_.schedule.retries = 2;
  }

  WorkloadInfo info() const override {
    WorkloadInfo info;
    info.scale = params_.scale;
    info.protocols = scan::protocols_to_string(options_.schedule.protocols);
    info.retries = options_.schedule.retries;
    info.apd_window = options_.apd.window_days;
    info.history_day = kHistoryDay;
    info.first_day = kFirstDay;
    info.last_day = kLastDay;
    info.ops_per_batch = kBatch;
    info.warmup_window = kBatch;
    return info;
  }

  SetupRecord setup(Recorder& rec) override {
    traced_.reset();
    scan_.reset();
    store_.reset();
    sim_.reset();
    universe_.reset();
    SetupRecord setup;
    const std::uint64_t t0 = now_ns();
    universe_ = std::make_unique<netsim::Universe>(params_, engine_);
    sim_ = std::make_unique<netsim::NetworkSim>(*universe_);
    const std::uint64_t t1 = now_ns();
    auto pipeline = std::make_unique<hitlist::Pipeline>(*universe_, *sim_,
                                                        options_, engine_);
    scan_ = std::make_unique<ScanState>(*sim_, engine_);
    const std::uint64_t t2 = now_ns();
    OpRecord history = timed_run_day(*pipeline, *sim_, kHistoryDay, "history",
                                     rec.allocs);
    // Freeze: keep a copy of the store (sized to its rows, not to the
    // campaign bound) and drop the pipeline's day-loop buffers.
    store_ = std::make_unique<hitlist::TargetStore>(pipeline->store());
    scan_->freeze(*store_, kHistoryDay);
    const std::uint64_t t3 = now_ns();
    history.precision =
        verdict_precision(*universe_, pipeline->filter().prefixes());
    rec.records.push_back(history);
    pipeline.reset();
    setup.universe_ms = ms_between(t0, t1);
    setup.construct_ms = ms_between(t1, t2);
    setup.history_ms = ms_between(t2, t3);
    next_day_ = kFirstDay;
    return setup;
  }

  void run_batch(Recorder& rec, const char* kind) override {
    batch_first_ = next_day_;
    const auto& store = *store_;
    for (int i = 0; i < kBatch; ++i) {
      const int day = next_day_;
      next_day_ = day == kLastDay ? kFirstDay : day + 1;
      if (day == kFirstDay) scan_->engine.sync(store, kHistoryDay);
      OpRecord op;
      op.kind = kind;
      op.day = day;
      const std::uint64_t allocs_before = rec.allocs();
      const std::uint64_t probes_before = sim_->probes_sent();
      const std::uint64_t start = now_ns();
      scan_->engine.sync(store, day);
      scan_->engine.scan_store(store, day, options_.schedule, &scan_->frame);
      const std::uint64_t end = now_ns();
      op.allocs = rec.allocs() - allocs_before;
      op.probes = sim_->probes_sent() - probes_before;
      op.ms = ms_between(start, end);
      op.digest = frame_digest(scan_->frame);
      rec.records.push_back(op);
    }
  }

  void replay_batch(Recorder& rec, const char* kind) override {
    if (!traced_) {
      traced_ = std::make_unique<ScanState>(*sim_, engine_);
      traced_->freeze(*store_, kHistoryDay);
    }
    int day = batch_first_;
    for (int i = 0; i < kBatch; ++i) {
      replay_day(*traced_, day, kind, rec);
      day = day == kLastDay ? kFirstDay : day + 1;
    }
  }

  void replay_all(Recorder& rec) override {
    ScanState check(*sim_, engine_);
    check.freeze(*store_, kHistoryDay);
    for (int day = kFirstDay; day <= kLastDay; ++day) {
      replay_day(check, day, "replay", rec);
    }
  }

  void replay_history(Recorder& rec) override {
    std::unique_ptr<ReplayPipeline> replay;
    {
      Span span(rec.tracer, "hitlist.construct");
      replay = std::make_unique<ReplayPipeline>(*universe_, *sim_, options_,
                                                engine_);
    }
    rec.records.push_back(traced_run_day(*replay, *universe_, *sim_,
                                         kHistoryDay, "history", "history",
                                         rec));
  }

 private:
  // A scan engine over the frozen store, with its own frame.
  struct ScanState {
    ScanState(netsim::NetworkSim& sim, engine::Engine* engine)
        : engine(sim, engine) {}
    void freeze(const hitlist::TargetStore& store, int day) {
      engine.reserve(store.size());
      frame.reserve(store.size());
      engine.sync(store, day);
    }
    scan::ScanEngine engine;
    scan::ScanFrame frame;
  };

  void replay_day(ScanState& state, int day, const char* kind, Recorder& rec) {
    const auto& store = *store_;
    if (day == kFirstDay) state.engine.sync(store, kHistoryDay);
    OpRecord op;
    op.kind = kind;
    op.day = day;
    const std::uint64_t probes_before = sim_->probes_sent();
    {
      Span root(rec.tracer, "day");
      root.arg("day", day);
      op.span = root.id();
      {
        Span span(rec.tracer, "scan.sync");
        state.engine.sync(store, day);
        span.arg("rows", static_cast<std::int64_t>(store.size()));
      }
      Span span(rec.tracer, "scan.sweep");
      const std::uint64_t sweep_before = sim_->probes_sent();
      state.engine.scan_store(store, day, options_.schedule, &state.frame);
      span.arg("probes",
               static_cast<std::int64_t>(sim_->probes_sent() - sweep_before));
      span.arg("rows", static_cast<std::int64_t>(state.frame.rows().size()));
      span.arg("responsive",
               static_cast<std::int64_t>(state.frame.responsive_any_count()));
    }
    const SpanRecord& span = rec.tracer.span(op.span);
    op.ms = ms_between(span.start_ns, span.end_ns);
    op.allocs = span.allocs;
    op.probes = sim_->probes_sent() - probes_before;
    op.digest = frame_digest(state.frame);
    rec.records.push_back(op);
  }

  netsim::UniverseParams params_;
  engine::Engine* engine_;
  hitlist::PipelineOptions options_;
  std::unique_ptr<netsim::Universe> universe_;
  std::unique_ptr<netsim::NetworkSim> sim_;
  std::unique_ptr<hitlist::TargetStore> store_;  // the frozen hitlist
  std::unique_ptr<ScanState> scan_;
  std::unique_ptr<ScanState> traced_;
  int next_day_ = kFirstDay;
  int batch_first_ = kFirstDay;
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed,
                                        engine::Engine* engine) {
  if (name == "steady") return std::make_unique<Steady>(seed, engine);
  if (name == "ingest") return std::make_unique<Ingest>(seed, engine);
  if (name == "rescan") return std::make_unique<Rescan>(seed, engine);
  return nullptr;
}

}  // namespace perfbench
