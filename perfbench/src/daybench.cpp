// daybench: the day-loop benchmark program behind perfbench/run.py.
//
//   daybench --workload steady|ingest|rescan --seed N --seconds S
//            --trace 0|1 --threads T --out raw.json
//
// Phases: a fixed all-core machine warm-up; the workload's setup,
// repeated and timed; an op warm-up that runs until op time is
// steady; the timed phase (untraced batches, alternated with traced
// replays of the same days when --trace 1); then the digest-check
// replay (--trace 0). Everything measured is written as raw records to
// --out; run.py turns them into metrics and checks them.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "replay.h"
#include "workloads.h"
// The one translation unit that replaces global operator new with the
// repository's counting allocator (allocs_per_day and span allocs).
#include "util/counting_allocator.h"

using namespace perfbench;

namespace {

// Setup runs at least kSetupMinRepeats times, and repeats until
// kSetupMinS seconds of setup were measured (cheap setups get more
// samples).
constexpr int kSetupMinRepeats = 3;
constexpr int kSetupMaxRepeats = 25;
constexpr double kSetupMinS = 2.0;
constexpr double kMachineWarmupS = 2.0;
constexpr double kOpWarmupMinS = 1.0;
constexpr double kOpWarmupMaxS = 15.0;
constexpr double kSteadyTolerance = 0.04;  // window medians within 4%
constexpr std::size_t kSpanCapacity = 1u << 17;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  unsigned threads = 0;
  std::string out;
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "daybench: %s\nusage: daybench --workload steady|ingest|rescan "
               "--seed N --seconds S --trace 0|1 --threads T --out FILE\n",
               message);
  std::exit(2);
}

bool parse_u64(const char* text, std::uint64_t* out) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') return false;
  *out = value;
  return true;
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--out") {
      args.out = value;
    } else if (!parse_u64(value, &number)) {
      usage(("invalid value for " + flag).c_str());
    } else if (flag == "--seed") {
      args.seed = number;
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(number);
    } else if (flag == "--trace") {
      args.trace = static_cast<int>(number);
    } else if (flag == "--threads") {
      args.threads = static_cast<unsigned>(std::min<std::uint64_t>(number, 1024));
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty() || args.out.empty() || !have_seed) {
    usage("--workload, --seed and --out are required");
  }
  if (args.seconds <= 0 || args.seconds > 600) usage("--seconds must be 1..600");
  if (args.trace != 0 && args.trace != 1) usage("--trace must be 0 or 1");
  if (args.threads == 0) usage("--threads must be positive");
  return args;
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

// Load every worker core for a fixed time, so the measured phases do
// not start on a machine that has just been idle (clock ramp-up and
// host scheduling make the first ~1.5 s of work run at half speed).
void machine_warmup(unsigned threads, double seconds) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> spinners;
  std::vector<std::uint64_t> sinks(threads, 0);
  for (unsigned t = 0; t < threads; ++t) {
    spinners.emplace_back([&stop, &sinks, t] {
      std::uint64_t x = t + 1;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int k = 0; k < 4096; ++k) x = x * 6364136223846793005ULL + 1;
      }
      sinks[t] = x;
    });
  }
  const std::uint64_t start = now_ns();
  while (seconds_since(start) < seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true);
  for (auto& spinner : spinners) spinner.join();
}

double median_of(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

struct WarmupReport {
  double seconds = 0.0;
  std::size_t ops = 0;
  bool steady = false;
  std::vector<double> window_ms;  // median op ms of each window
};

// Run untraced batches until two consecutive windows of ops agree on
// their median within kSteadyTolerance (after at least kOpWarmupMinS),
// or until kOpWarmupMaxS.
WarmupReport op_warmup(Workload& workload, Recorder& rec) {
  WarmupReport report;
  const std::size_t window =
      static_cast<std::size_t>(workload.info().warmup_window);
  const std::size_t first = rec.records.size();
  const std::uint64_t start = now_ns();
  std::vector<double> pending;
  for (;;) {
    const std::size_t before = rec.records.size();
    workload.run_batch(rec, "warmup");
    for (std::size_t i = before; i < rec.records.size(); ++i) {
      if (std::strcmp(rec.records[i].kind, "warmup") != 0) continue;
      pending.push_back(rec.records[i].ms);
      if (pending.size() == window) {
        report.window_ms.push_back(median_of(pending));
        pending.clear();
      }
    }
    const double elapsed = seconds_since(start);
    const auto& w = report.window_ms;
    if (w.size() >= 2 && elapsed >= kOpWarmupMinS) {
      const double a = w[w.size() - 2];
      const double b = w[w.size() - 1];
      if (std::max(a, b) <= std::min(a, b) * (1.0 + kSteadyTolerance)) {
        report.steady = true;
        break;
      }
    }
    if (elapsed >= kOpWarmupMaxS) break;
  }
  report.seconds = seconds_since(start);
  for (std::size_t i = first; i < rec.records.size(); ++i) {
    report.ops += std::strcmp(rec.records[i].kind, "warmup") == 0;
  }
  return report;
}

// ---- raw JSON output ----------------------------------------------

void append(std::string& out, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

void append(std::string& out, const char* format, ...) {
  char buffer[512];
  va_list args;
  va_start(args, format);
  const int n = std::vsnprintf(buffer, sizeof buffer, format, args);
  va_end(args);
  if (n > 0) out.append(buffer, std::min<std::size_t>(n, sizeof buffer - 1));
}

std::string raw_json(const Args& args, const WorkloadInfo& info,
                     const std::vector<SetupRecord>& setups,
                     const WarmupReport& warmup, double timed_s,
                     long first_batch_rss_kb, long end_rss_kb,
                     const Recorder& rec) {
  std::string out = "{\n";
  append(out, "\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"trace\": %d, \"threads\": %u,\n",
         args.workload.c_str(), args.seed, args.trace, args.threads);
#if defined(__clang__)
  const char* compiler = "clang";
#elif defined(__GNUC__)
  const char* compiler = "gcc";
#else
  const char* compiler = "unknown";
#endif
  append(out, "\"compiler\": \"%s %s\", \"build_type\": \"%s\",\n",
         compiler, __VERSION__, PERFBENCH_BUILD_TYPE);
  append(out, "\"scale\": %g, \"protocols\": \"%s\", \"retries\": %u, "
              "\"apd_window\": %u,\n",
         info.scale, info.protocols.c_str(), info.retries, info.apd_window);
  append(out, "\"history_day\": %d, \"first_day\": %d, \"last_day\": %d, "
              "\"ops_per_batch\": %d,\n",
         info.history_day, info.first_day, info.last_day, info.ops_per_batch);
  append(out, "\"machine_warmup_s\": %.3f, \"timed_s\": %.6f,\n",
         kMachineWarmupS, timed_s);
  append(out, "\"warmup\": {\"seconds\": %.6f, \"ops\": %zu, \"steady\": %s, "
              "\"tolerance\": %g, \"window_ms\": [",
         warmup.seconds, warmup.ops, warmup.steady ? "true" : "false",
         kSteadyTolerance);
  for (std::size_t i = 0; i < warmup.window_ms.size(); ++i) {
    append(out, "%s%.6f", i ? ", " : "", warmup.window_ms[i]);
  }
  out += "]},\n\"setup\": [";
  for (std::size_t i = 0; i < setups.size(); ++i) {
    append(out, "%s{\"universe_ms\": %.6f, \"construct_ms\": %.6f, "
                "\"history_ms\": %.6f}",
           i ? ", " : "", setups[i].universe_ms, setups[i].construct_ms,
           setups[i].history_ms);
  }
  append(out, "],\n\"peak_rss_kb\": %ld, \"end_rss_kb\": %ld,\n",
         first_batch_rss_kb, end_rss_kb);
  // Records: [kind, day, ms, allocs, probes, digest, span, checked,
  // correct, islands]
  out += "\"records\": [\n";
  for (std::size_t i = 0; i < rec.records.size(); ++i) {
    const OpRecord& r = rec.records[i];
    append(out, "%s[\"%s\", %d, %.6f, %" PRIu64 ", %" PRIu64 ", \"%016" PRIx64
                "\", %ld, %" PRIu64 ", %" PRIu64 ", %" PRIu64 "]",
           i ? ",\n" : "", r.kind, r.day, r.ms, r.allocs, r.probes, r.digest,
           r.span == kNoParent ? -1L : static_cast<long>(r.span),
           r.precision.checked, r.precision.correct, r.precision.islands);
  }
  // Spans: [name, parent, start_us, dur_us, allocs, {args}]; times are
  // relative to the first span.
  out += "\n],\n\"spans\": [\n";
  const auto& spans = rec.tracer.spans();
  const std::uint64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    append(out, "%s[\"%s\", %ld, %.3f, %.3f, %" PRIu64 ", {", i ? ",\n" : "",
           s.name, s.parent == kNoParent ? -1L : static_cast<long>(s.parent),
           static_cast<double>(s.start_ns - origin) * 1e-3,
           static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.allocs);
    for (std::uint32_t k = 0; k < s.nargs; ++k) {
      append(out, "%s\"%s\": %" PRId64, k ? ", " : "", s.keys[k],
             s.values[k]);
    }
    out += "}]";
  }
  out += "\n]\n}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);

  v6h::engine::EngineOptions engine_options;
  engine_options.threads = args.threads;
  v6h::engine::Engine engine(engine_options);
  auto workload = make_workload(args.workload, args.seed, &engine);
  if (!workload) usage(("unknown workload " + args.workload).c_str());

  Recorder rec(kSpanCapacity, &v6h::util::allocation_count);
  rec.records.reserve(1u << 16);

  machine_warmup(args.threads, kMachineWarmupS);

  // The first setup and its first batch of ops give peak_rss_mb: the
  // memory the workload needs. Repeated setups, restarts and campaigns
  // after that only add allocator fragmentation, which glibc's dynamic
  // mmap threshold makes bimodal (one ingest run peaked at 163 MB,
  // the next at 319 MB).
  auto seconds_of = [](const SetupRecord& r) {
    return (r.universe_ms + r.construct_ms + r.history_ms) * 1e-3;
  };
  std::vector<SetupRecord> setups{workload->setup(rec)};
  workload->run_batch(rec, "warmup");
  const long first_batch_rss_kb = peak_rss_kb();
  double setup_s = seconds_of(setups.front());
  while (setups.size() < static_cast<std::size_t>(kSetupMinRepeats) ||
         (setups.size() < static_cast<std::size_t>(kSetupMaxRepeats) &&
          setup_s < kSetupMinS)) {
    setups.push_back(workload->setup(rec));
    setup_s += seconds_of(setups.back());
  }

  const WarmupReport warmup = op_warmup(*workload, rec);

  const std::uint64_t start = now_ns();
  do {
    workload->run_batch(rec, "op");
    if (args.trace) workload->replay_batch(rec, "traced");
  } while (seconds_since(start) < args.seconds);
  const double timed_s = seconds_since(start);
  const long end_rss_kb = peak_rss_kb();

  if (args.trace) {
    workload->replay_history(rec);
  } else {
    workload->replay_all(rec);
  }

  const std::string json =
      raw_json(args, workload->info(), setups, warmup, timed_s,
               first_batch_rss_kb, end_rss_kb, rec);
  std::FILE* file = std::fopen(args.out.c_str(), "w");
  if (file == nullptr ||
      std::fwrite(json.data(), 1, json.size(), file) != json.size() ||
      std::fclose(file) != 0) {
    std::fprintf(stderr, "daybench: could not write %s\n", args.out.c_str());
    return 1;
  }
  return 0;
}
