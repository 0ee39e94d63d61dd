#include "replay.h"

#include <chrono>

#include "util/rng.h"

namespace perfbench {

using namespace v6h;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer::Tracer(std::size_t capacity, AllocProbe allocs) : allocs_(allocs) {
  spans_.reserve(capacity);
}

std::uint32_t Tracer::begin(const char* name) {
  // Append first, then read the counters: a capacity overflow of the
  // span list is charged to the enclosing span, never to this one.
  spans_.emplace_back();
  const auto id = static_cast<std::uint32_t>(spans_.size() - 1);
  SpanRecord& span = spans_.back();
  span.name = name;
  span.parent = open_;
  open_ = id;
  span.allocs = allocs_();
  span.start_ns = now_ns();
  return id;
}

void Tracer::end(std::uint32_t id) {
  const std::uint64_t end = now_ns();
  SpanRecord& span = spans_[id];
  span.end_ns = end;
  span.allocs = allocs_() - span.allocs;
  open_ = span.parent;
}

void Tracer::arg(std::uint32_t id, const char* key, std::int64_t value) {
  SpanRecord& span = spans_[id];
  if (span.nargs == span.keys.size()) return;
  span.keys[span.nargs] = key;
  span.values[span.nargs] = value;
  ++span.nargs;
}

ReplayPipeline::ReplayPipeline(const netsim::Universe& universe,
                               netsim::NetworkSim& sim,
                               const hitlist::PipelineOptions& options,
                               engine::Engine* engine)
    : sim_(&sim),
      options_(options),
      engine_(engine),
      sources_(universe, sim, engine),
      detector_(sim, options_.apd, engine),
      counter_(universe.bgp(), options_.apd.min_targets, engine),
      scan_engine_(sim, engine) {
  detector_.set_scan_engine(&scan_engine_);
  // The Pipeline constructor's campaign bounds, so both sides grow
  // (and therefore allocate and fault) identically.
  const std::size_t bound = sources_.max_unique_addresses();
  const std::size_t prefix_bound = bound * 4 + 64;
  const std::size_t aliased_budget =
      256 + universe.true_aliased_prefixes().size() * 64;
  store_.reserve(bound);
  counter_.reserve_for(bound);
  detector_.reserve_prefixes(prefix_bound);
  scan_engine_.reserve(bound);
  frame_.reserve(bound);
  filter_.reserve(aliased_budget, 2048 + aliased_budget * 24);
  scratch_.reserve(bound, prefix_bound);
  delta_.became_aliased.reserve(prefix_bound);
  delta_.became_clean.reserve(prefix_bound);
}

DayCounts ReplayPipeline::run_day(int day, Tracer& tracer) {
  DayCounts counts;
  counts.day = day;
  delta_.clear();
  delta_.day = day;
  delta_.first_new_row = static_cast<std::uint32_t>(store_.size());

  // 1. Collect, source by source, each draw folded into the store.
  for (const auto source : netsim::kAllSources) {
    const sources::CollectResult* result = nullptr;
    {
      Span span(tracer, "sources.collect");
      result = source == netsim::SourceId::kScamper
                   ? &sources_.collect(source, day, store_.addresses())
                   : &sources_.collect(source, day);
      span.arg("source", static_cast<std::int64_t>(source));
      span.arg("new", static_cast<std::int64_t>(result->new_addresses.size()));
    }
    Span span(tracer, "hitlist.insert");
    std::size_t admitted = 0;
    for (const auto& a : result->new_addresses) {
      if (store_.insert(a, day)) ++admitted;
    }
    counts.new_addresses += admitted;
    span.arg("offered", static_cast<std::int64_t>(result->new_addresses.size()));
    span.arg("admitted", static_cast<std::int64_t>(admitted));
  }
  delta_.row_count = static_cast<std::uint32_t>(store_.size());

  // 2. Candidate counting over the day's new rows, then the fan-out.
  {
    Span span(tracer, "apd.candidates");
    counter_.add_addresses(store_.addresses().data() + delta_.first_new_row,
                           delta_.new_addresses());
    span.arg("candidates",
             static_cast<std::int64_t>(counter_.candidates().size()));
  }
  {
    Span span(tracer, "apd.fanout");
    detector_.run_day_on_prefixes(counter_.candidates(), day, nullptr,
                                  scratch_.outcome);
    const auto& outcome = scratch_.outcome;
    span.arg("candidates",
             static_cast<std::int64_t>(counter_.candidates().size()));
    span.arg("probes", static_cast<std::int64_t>(outcome.probes));
    span.arg("aliased", static_cast<std::int64_t>(outcome.aliased.size()));
    span.arg("flips", static_cast<std::int64_t>(outcome.became_aliased.size() +
                                                outcome.became_clean.size()));
  }
  delta_.became_aliased.swap(scratch_.outcome.became_aliased);
  delta_.became_clean.swap(scratch_.outcome.became_clean);

  // 3. Alias filter: apply the transitions, filter the new rows, then
  // re-filter the members of flipped prefixes.
  {
    Span span(tracer, "hitlist.filter_update");
    for (const auto& prefix : delta_.became_clean) filter_.remove(prefix);
    for (const auto& prefix : delta_.became_aliased) filter_.insert(prefix);
    span.arg("flips", static_cast<std::int64_t>(delta_.became_aliased.size() +
                                                delta_.became_clean.size()));
  }
  {
    Span span(tracer, "hitlist.filter_query");
    filter_.is_aliased_many(store_.addresses().data() + delta_.first_new_row,
                            delta_.new_addresses(), &scratch_.aliased, engine_);
    for (std::size_t i = 0; i < scratch_.aliased.size(); ++i) {
      store_.set_aliased(delta_.first_new_row + i, scratch_.aliased[i] != 0);
    }
    span.arg("rows", static_cast<std::int64_t>(delta_.new_addresses()));
  }
  {
    Span span(tracer, "hitlist.refilter");
    scratch_.affected.clear();
    store_.rows_within_many(delta_.became_aliased, &scratch_.affected);
    store_.rows_within_many(delta_.became_clean, &scratch_.affected);
    for (const auto row : scratch_.affected) {
      store_.set_aliased(row, filter_.is_aliased(store_.address(row)));
    }
    span.arg("rows", static_cast<std::int64_t>(scratch_.affected.size()));
  }
  counts.aliased_prefixes = filter_.prefixes().size();

  // 4. Resolution-cache sync and the protocol scan.
  {
    Span span(tracer, "scan.sync");
    scan_engine_.sync(store_, day);
    span.arg("rows", static_cast<std::int64_t>(store_.size()));
  }
  {
    Span span(tracer, "scan.sweep");
    const std::uint64_t probes_before = sim_->probes_sent();
    scan_engine_.scan_store(store_, day, options_.schedule, &frame_, nullptr);
    span.arg("probes",
             static_cast<std::int64_t>(sim_->probes_sent() - probes_before));
    span.arg("rows", static_cast<std::int64_t>(frame_.rows().size()));
    span.arg("responsive",
             static_cast<std::int64_t>(frame_.responsive_any_count()));
  }
  counts.scanned_targets = frame_.rows().size();
  return counts;
}

namespace {

struct Hasher {
  std::uint64_t h = 0x6a09e667f3bcc908ULL;
  void add(std::uint64_t x) { h = util::hash64(h, x); }
  void add(const ipv6::Address& a) {
    add(a.hi);
    add(a.lo);
  }
  void add(const ipv6::Prefix& p) {
    add(p.address());
    add(p.length());
  }
};

}  // namespace

std::uint64_t frame_digest(const scan::ScanFrame& frame) {
  Hasher hasher;
  hasher.add(static_cast<std::uint64_t>(frame.day()));
  hasher.add(frame.row_count());
  hasher.add(frame.rows().size());
  for (const auto row : frame.rows()) {
    hasher.add((static_cast<std::uint64_t>(row) << 8) | frame.mask_of_row(row));
  }
  hasher.add(frame.responsive_any_count());
  return hasher.h;
}

std::uint64_t day_digest(const DayCounts& counts,
                         const hitlist::TargetStore& store,
                         const hitlist::DayDelta& delta,
                         const scan::ScanFrame& frame) {
  Hasher hasher;
  hasher.add(static_cast<std::uint64_t>(counts.day));
  hasher.add(counts.new_addresses);
  hasher.add(counts.aliased_prefixes);
  hasher.add(counts.scanned_targets);
  for (std::size_t row = delta.first_new_row; row < delta.row_count; ++row) {
    hasher.add(store.address(row));
  }
  for (const auto& prefix : delta.became_aliased) hasher.add(prefix);
  hasher.add(0xa11a5ULL);
  for (const auto& prefix : delta.became_clean) hasher.add(prefix);
  hasher.add(frame_digest(frame));
  return hasher.h;
}

PrecisionCount verdict_precision(const netsim::Universe& universe,
                                 const std::vector<ipv6::Prefix>& aliased) {
  constexpr std::uint64_t kSamples = 8;
  PrecisionCount count;
  for (const auto& prefix : aliased) {
    bool correct = true;
    bool island = false;
    for (std::uint64_t i = 0; i < kSamples && correct; ++i) {
      const auto a = prefix.random_address(util::hash64(0x9e37ULL, i));
      if (universe.truly_aliased_at(a)) continue;
      // An honest carve-out strictly inside the verdict prefix is
      // below APD's granularity: the verdict covers an aliased zone,
      // and its 16 fan-out probes cannot see a /64 island in a /48.
      // Such a sample is counted, not held against the verdict.
      const netsim::Zone* zone = universe.zone_at(a);
      const auto* carveout = zone != nullptr && zone->aliased()
                                 ? &zone->config().carveout
                                 : nullptr;
      island = carveout != nullptr && carveout->has_value() &&
               (*carveout)->contains(a) &&
               (*carveout)->length() > prefix.length();
      correct = island;
    }
    ++count.checked;
    count.correct += correct;
    count.islands += island;
  }
  return count;
}

}  // namespace perfbench
