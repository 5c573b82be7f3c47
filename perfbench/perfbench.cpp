// perfbench — the end-to-end pipeline benchmark: generate or load a
// graph, build the CSR, solve through the registry, validate, report.
// Every layer is timed from outside, by wrapping the calls into the
// public functions of graph/, sim/, registry/, validate/ and trace/.
// README.md in this directory lists the workloads and which end-to-end
// metric each per-layer metric should move.
//
//   perfbench --workload rmat-luby|forest-mis|forest-matching|all
//             [--seed N] [--seconds S] [--trace 0|1]
//             [--rmat-seed N] [--forest-seed N] [--luby-seed N]
//             [--data-dir DIR]
//
// --seed seeds every input; --rmat-seed / --forest-seed / --luby-seed
// override one of them. --trace 0 prints the gated end-to-end metrics;
// --trace 1 alternates untraced and traced pipeline runs and prints
// the per-layer metrics, a span self-time table, and writes the spans
// as Chrome-trace JSON into --data-dir. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
// code is non-zero if any trial failed or any check did not hold.
#include <sys/resource.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/arboricity.hpp"
#include "graph/edgelist_bin.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/rmat.hpp"
#include "registry/registry.hpp"
#include "sim/metrics.hpp"
#include "sim/metrics_io.hpp"
#include "sim/network.hpp"
#include "trace/collector.hpp"
#include "trace/trace.hpp"
#include "validate/validate.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace valocal;
using Clock = std::chrono::steady_clock;

// The engine configuration every measurement runs under. Pinned in
// code: the VALOCAL_* environment variables the bench/ binaries honour
// are never read here, so a stray one cannot change what is measured.
constexpr std::size_t kEngineThreads = 1;
constexpr std::size_t kBuildThreads = 1;
constexpr FrontierMode kFrontier = FrontierMode::kAuto;
constexpr StateLayout kLayout = StateLayout::kAuto;
constexpr bool kSleepHints = false;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------
// Process probes.

/// Peak resident set (VmHWM) in MiB; ru_maxrss when /proc is absent.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Returns freed heap to the kernel, then resets VmHWM to the current
/// RSS (Linux clear_refs "5"), so each pipeline run reports its own
/// peak and not memory an earlier run (or workload) left cached in the
/// allocator. Without clear_refs the peak is the process-wide one.
void reset_peak_rss() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

// ---------------------------------------------------------------------
// Spans: recorded in memory around each layer call of a traced run.

struct Span {
  std::string name;
  double begin_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
  int trial = -1;  // one id per trial; -1 outside the solve phase
};

class SpanRecorder {
 public:
  explicit SpanRecorder(Clock::time_point epoch) : epoch_(epoch) {}

  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  int open(std::string name, int trial = -1) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    if (trial < 0 && parent >= 0) trial = spans_[parent].trial;
    spans_.push_back({std::move(name), now_us(), 0.0, parent, trial});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id) {
    spans_[id].end_us = now_us();
    stack_.pop_back();
  }

  /// A closed span measured elsewhere (engine rounds, from the trace
  /// collector), clipped into its parent's interval.
  void add(std::string name, double begin_us, double end_us, int parent) {
    const Span& p = spans_[parent];
    begin_us = std::clamp(begin_us, p.begin_us, now_us());
    end_us = std::clamp(end_us, begin_us, now_us());
    spans_.push_back({std::move(name), begin_us, end_us, parent, p.trial});
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a no-op when the run is untraced.
class Scope {
 public:
  Scope(SpanRecorder* rec, const char* name, int trial = -1) : rec_(rec) {
    if (rec_ != nullptr) id_ = rec_->open(name, trial);
  }
  ~Scope() {
    if (rec_ != nullptr) rec_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  SpanRecorder* rec_;
  int id_ = -1;
};

struct SelfTime {
  std::size_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};

/// Self time per layer name: span duration minus the time its child
/// spans cover (children of one span never overlap). Only the subtree
/// under `root` is counted, so the self times add up to its duration.
std::map<std::string, SelfTime> self_times(const std::vector<Span>& spans,
                                           int root) {
  std::vector<double> child_us(spans.size(), 0.0);
  std::vector<bool> inside(spans.size(), false);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    inside[i] = static_cast<int>(i) == root || (p >= 0 && inside[p]);
    if (inside[i] && p >= 0 && static_cast<int>(i) != root)
      child_us[p] += spans[i].end_us - spans[i].begin_us;
  }
  std::map<std::string, SelfTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (!inside[i]) continue;
    SelfTime& s = out[spans[i].name];
    const double dur = spans[i].end_us - spans[i].begin_us;
    ++s.count;
    s.total_us += dur;
    s.self_us += dur - child_us[i];
  }
  return out;
}

void write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans) {
  std::ofstream os(path);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[160];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                  "\"trial\":%d}}",
                  s.begin_us, s.end_us - s.begin_us, i, s.parent, s.trial);
    os << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name << buf;
  }
  os << "\n]}\n";
  if (!os) std::cerr << "perfbench: could not write " << path << "\n";
}

// ---------------------------------------------------------------------
// Workloads.

enum class Source : std::uint8_t { kRmat, kLoadBin, kForest };

struct Workload {
  const char* name;
  Source source;
  const char* algo;
  std::size_t trials;      // trials per pipeline run
  std::size_t arboricity;  // declared arboricity (AlgoParams)
  std::uint32_t rmat_scale;
  std::size_t rmat_edge_factor;
  std::size_t forest_n;
  std::size_t forest_a;
};

// Why these three, and these sizes: see README.md. Each pipeline run
// takes several seconds, so every phase is long enough to time on a
// shared host. Smallest working set first: `--workload all` runs them
// in this order in one process, and memory the allocator keeps from
// an earlier workload would otherwise show in a smaller one's peak.
constexpr Workload kWorkloads[] = {
    {"forest-matching", Source::kForest, "matching", 1, 3, 0, 0, 16384, 3},
    {"forest-mis", Source::kLoadBin, "mis", 2, 3, 0, 0, 131072, 3},
    {"rmat-luby", Source::kRmat, "luby", 16, 2, 18, 16, 0, 0},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

struct Seeds {
  std::uint64_t rmat = 1;
  std::uint64_t forest = 1;
  std::uint64_t luby = 1;  // trial i runs with seed luby + i
};

/// Untimed per-process inputs: the forest-mis VALOCELB file, and in
/// traced runs a VALOCELB copy of the workload's graph for the load
/// and pair-stream probes.
struct Inputs {
  std::string bin_path;
  bool bin_ready = false;
  std::uint64_t bin_pairs = 0;
  double file_generate_s = 0.0;  // forest-mis: forest_union call
};

// ---------------------------------------------------------------------
// One pipeline run.

struct Rep {
  double pipeline_s = 0.0, setup_s = 0.0, solve_s = 0.0, report_s = 0.0;
  double graph_s = 0.0;  // the generate or load call
  double degeneracy_s = 0.0;
  double setup_rss_mb = 0.0, peak_rss_mb = 0.0;
  double engine_s = 0.0, finalize_s = 0.0, check_s = 0.0;
  std::uint64_t vertex_rounds = 0;
  std::uint64_t edge_rounds = 0;
  std::size_t worst_case = 0;
  std::size_t degeneracy = 0;
  std::size_t n = 0, m = 0;
  std::uint64_t pairs = 0;
  std::size_t report_bytes = 0;
  std::size_t attempted = 0, failed = 0;
  std::vector<std::uint64_t> fingerprints;  // per trial
  // Traced runs only.
  int pipeline_span = -1;
  std::uint64_t engine_rounds = 0;
  std::map<std::string, std::uint64_t> phase_round_sum;
  double pair_stream_s = 0.0, probe_load_s = 0.0;
};

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Labels, r(v) and round_sum of one trial: what byte-identity means.
std::uint64_t fingerprint(const registry::SolveOutcome& o) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = fnv1a(h, o.labels.data(), o.labels.size() * sizeof(o.labels[0]));
  h = fnv1a(h, o.metrics.rounds.data(),
            o.metrics.rounds.size() * sizeof(o.metrics.rounds[0]));
  const std::uint64_t rs = o.metrics.round_sum();
  return fnv1a(h, &rs, sizeof rs);
}

/// Re-runs the problem's validator on the outcome's labels; the
/// benchmark's own check, independent of the verdict spec.run attached.
bool recheck(const Graph& g, registry::Problem problem,
             const std::vector<std::int64_t>& labels) {
  std::vector<bool> in(labels.size());
  for (std::size_t i = 0; i < labels.size(); ++i) in[i] = labels[i] != 0;
  switch (problem) {
    case registry::Problem::kMis:
      return in.size() == g.num_vertices() && is_mis(g, in);
    case registry::Problem::kMatching:
      return in.size() == g.num_edges() && is_maximal_matching(g, in);
    default:
      return false;
  }
}

/// One drain of a pair source; touches every id so a zero-copy source
/// cannot hand its blocks out unread.
double drain_pairs(const EdgeBlockSource& src, bool* ok) {
  std::uint64_t pairs = 0, sum = 0;
  const auto t0 = Clock::now();
  src.stream(kBuildThreads, [&](EdgeBlockSource::Block block) {
    pairs += block.size() / 2;
    for (const Vertex v : block) sum += v;
  });
  const double s = seconds_between(t0, Clock::now());
  *ok = pairs == src.num_pairs() && sum != ~std::uint64_t{0};
  return s;
}

gen::RmatParams rmat_params(const Workload& w, const Seeds& seeds) {
  gen::RmatParams p;
  p.scale = w.rmat_scale;
  p.edge_factor = w.rmat_edge_factor;
  p.seed = seeds.rmat;
  return p;
}

/// Setup: generate or load, CSR build, degeneracy(g), family_ok — what
/// the CLI runs before its first solve.
std::optional<Graph> setup_graph(const Workload& w,
                                 const registry::AlgoSpec& spec,
                                 const Seeds& seeds, const Inputs& in,
                                 SpanRecorder* rec, Rep& rep) {
  Scope setup(rec, "setup");
  const auto t0 = Clock::now();
  Graph g;
  {
    Scope s(rec, w.source == Source::kLoadBin ? "graph.load"
                                              : "graph.generate");
    switch (w.source) {
      case Source::kRmat:
        g = gen::rmat(rmat_params(w, seeds), kBuildThreads);
        rep.pairs = rmat_params(w, seeds).num_directed_edges();
        break;
      case Source::kLoadBin:
        g = load_graph_bin(in.bin_path, kBuildThreads);
        rep.pairs = in.bin_pairs;
        break;
      case Source::kForest:
        g = gen::forest_union(w.forest_n, w.forest_a, seeds.forest);
        rep.pairs = w.forest_a * (w.forest_n - 1);  // add_edge calls
        break;
    }
  }
  const auto t1 = Clock::now();
  {
    Scope s(rec, "graph.degeneracy");
    rep.degeneracy = degeneracy(g);
  }
  const auto t2 = Clock::now();
  bool family = false;
  {
    Scope s(rec, "registry.family_ok");
    family = registry::family_ok(spec.family, g);
  }
  rep.setup_s = seconds_between(t0, Clock::now());
  rep.graph_s = seconds_between(t0, t1);
  rep.degeneracy_s = seconds_between(t1, t2);
  rep.n = g.num_vertices();
  rep.m = g.num_edges();
  if (!family) return std::nullopt;
  return g;
}

class Runner {
 public:
  Runner(const Workload& w, const Seeds& seeds, std::string data_dir)
      : w_(w),
        spec_(registry::Registry::instance().at(w.algo)),
        seeds_(seeds),
        data_dir_(std::move(data_dir)) {
    params_.arboricity = w.arboricity;
    params_.seed = seeds.luby;
    in_.bin_path = data_dir_ + "/" + w.name + "-" +
                   std::to_string(seeds.forest) + "-" +
                   std::to_string(seeds.rmat) + ".bin";
    if (w.source == Source::kLoadBin) {
      const auto t0 = Clock::now();
      const Graph g = gen::forest_union(w.forest_n, w.forest_a, seeds.forest);
      in_.file_generate_s = seconds_between(t0, Clock::now());
      save_edgelist_bin(in_.bin_path, g);
      in_.bin_pairs = g.num_edges();
      in_.bin_ready = true;
    }
  }

  ~Runner() {
    if (in_.bin_ready) std::filesystem::remove(in_.bin_path);
  }
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  const Workload& workload() const { return w_; }
  const Inputs& inputs() const { return in_; }
  std::size_t failed_checks() const { return failed_checks_; }

  /// Setup only (extra setup_s samples).
  double setup_once() {
    Rep rep;
    const std::optional<Graph> g =
        setup_graph(w_, spec_, seeds_, in_, nullptr, rep);
    if (!g.has_value()) ++failed_checks_;
    return rep.setup_s;
  }

  /// One full pipeline run; traced when `rec` is non-null.
  Rep run(SpanRecorder* rec, Clock::time_point epoch) {
    Rep rep;
    reset_peak_rss();
    trace::TraceCollector collector;
    const double collector_offset_us =
        std::chrono::duration<double, std::micro>(Clock::now() - epoch)
            .count();
    std::optional<trace::ScopedSink> sink;
    if (rec != nullptr) sink.emplace(&collector);

    std::optional<Scope> pipeline(std::in_place, rec, "pipeline");
    rep.pipeline_span = pipeline->id();
    const auto t0 = Clock::now();
    std::optional<Graph> g = setup_graph(w_, spec_, seeds_, in_, rec, rep);
    rep.setup_rss_mb = peak_rss_mb();
    if (!g.has_value()) {
      std::cerr << "perfbench: " << w_.name << ": graph rejected by "
                << "registry::family_ok\n";
      ++failed_checks_;
      rep.attempted = rep.failed = w_.trials;
      return rep;
    }

    // Solve: every trial through registry::run_trials (the batcher
    // behind --batch-trials). Traced runs wrap AlgoSpec::run to record
    // one span per trial plus the engine runs inside it.
    registry::AlgoSpec traced = spec_;
    if (rec != nullptr)
      traced.run = [&](const Graph& graph, const registry::AlgoParams& p) {
        const auto trial = static_cast<int>(p.seed - params_.seed);
        const std::size_t first_run = collector.runs().size();
        Scope s(rec, "algo.run", trial);
        registry::SolveOutcome o = spec_.run(graph, p);
        const auto& runs = collector.runs();
        for (std::size_t r = first_run; r < runs.size(); ++r) {
          const double b = collector_offset_us + runs[r].begin_us;
          rec->add("sim.engine_rounds", b,
                   b + static_cast<double>(runs[r].wall_ns) / 1e3, s.id());
        }
        return o;
      };
    const auto t1 = Clock::now();
    std::vector<registry::SolveOutcome> outcomes;
    {
      Scope s(rec, "solve");
      outcomes = registry::run_trials(traced, *g, params_, w_.trials);
    }
    const auto t2 = Clock::now();

    // Report: per trial, the measures CSV, round-timings CSV and a
    // JSONL run record, written to memory.
    {
      Scope s(rec, "report.write");
      std::ostringstream os;
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const Metrics& mt = outcomes[i].metrics;
        os << "{\"workload\":\"" << w_.name << "\",\"algo\":\""
           << spec_.name << "\",\"trial\":" << i
           << ",\"seed\":" << params_.seed + i << ",\"n\":" << rep.n
           << ",\"m\":" << rep.m << ",\"round_sum\":" << mt.round_sum()
           << ",\"vertex_averaged\":" << mt.vertex_averaged()
           << ",\"edge_averaged\":" << mt.edge_averaged()
           << ",\"worst_case\":" << mt.worst_case()
           << ",\"valid\":" << (outcomes[i].ok() ? "true" : "false")
           << "}\n";
        write_measures_csv(os, mt);
        write_round_timings_csv(os, mt);
      }
      rep.report_bytes = static_cast<std::size_t>(os.tellp());
    }
    const auto t3 = Clock::now();
    pipeline.reset();
    rep.pipeline_s = seconds_between(t0, t3);
    rep.solve_s = seconds_between(t1, t2);
    rep.report_s = seconds_between(t2, t3);
    rep.peak_rss_mb = peak_rss_mb();
    sink.reset();

    // Checks and per-layer probes, outside the timed pipeline.
    check(*g, outcomes, rep);
    if (rec != nullptr) {
      collect_trace(collector, rep);
      probe_graph(*g, rep);
    }
    return rep;
  }

 private:
  void check(const Graph& g,
             const std::vector<registry::SolveOutcome>& outcomes, Rep& rep) {
    rep.attempted = w_.trials;
    rep.failed = w_.trials > outcomes.size() ? w_.trials - outcomes.size()
                                             : 0;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const registry::SolveOutcome& o = outcomes[i];
      bool ok = o.ok();
      rep.vertex_rounds += o.metrics.round_sum();
      rep.edge_rounds += o.metrics.edge_round_sum();
      rep.worst_case = std::max(rep.worst_case, o.metrics.worst_case());
      rep.engine_s += static_cast<double>(o.metrics.total_wall_ns()) / 1e9;

      Metrics copy = o.metrics;
      auto t0 = Clock::now();
      copy.finalize(g);
      rep.finalize_s += seconds_between(t0, Clock::now());
      ok = ok && copy.summary.round_sum == o.metrics.round_sum() &&
           copy.summary.edge_round_sum == o.metrics.edge_round_sum();

      t0 = Clock::now();
      const bool valid = recheck(g, spec_.problem, o.labels);
      rep.check_s += seconds_between(t0, Clock::now());
      ok = ok && valid;

      const std::uint64_t fp = fingerprint(o);
      rep.fingerprints.push_back(fp);
      // Deterministic trials repeat byte for byte within a run; every
      // trial repeats byte for byte across runs of one process.
      if (spec_.deterministic && fp != rep.fingerprints.front()) ok = false;
      if (i < reference_.size() && fp != reference_[i]) ok = false;
      if (!ok) ++rep.failed;
    }
    if (reference_.empty()) reference_ = rep.fingerprints;
  }

  void collect_trace(const trace::TraceCollector& collector, Rep& rep) {
    for (const trace::RunRecord& run : collector.runs()) {
      rep.engine_rounds += run.rounds.size();
      for (const trace::PhaseStats& p :
           trace::TraceCollector::phase_breakdown(run))
        rep.phase_round_sum[p.name == "(run)" ? "run" : p.name] +=
            p.round_sum;
    }
  }

  /// The pair-stream and load probes behind graph.pair_stream_s,
  /// graph.load_s and graph.csr_build_s (see README.md).
  void probe_graph(const Graph& g, Rep& rep) {
    if (!in_.bin_ready) {
      save_edgelist_bin(in_.bin_path, g);
      in_.bin_pairs = g.num_edges();
      in_.bin_ready = true;
    }
    bool ok = true;
    if (w_.source == Source::kRmat)
      rep.pair_stream_s =
          drain_pairs(gen::RmatSource(rmat_params(w_, seeds_)), &ok);
    else
      rep.pair_stream_s = drain_pairs(BinEdgeList(in_.bin_path), &ok);
    if (w_.source == Source::kLoadBin) {
      rep.probe_load_s = rep.graph_s;
    } else {
      const auto t0 = Clock::now();
      const Graph loaded = load_graph_bin(in_.bin_path, kBuildThreads);
      rep.probe_load_s = seconds_between(t0, Clock::now());
      ok = ok && loaded.num_edges() == g.num_edges();
    }
    if (!ok) ++failed_checks_;
  }

  const Workload& w_;
  const registry::AlgoSpec& spec_;
  Seeds seeds_;
  std::string data_dir_;
  registry::AlgoParams params_;
  Inputs in_;
  std::vector<std::uint64_t> reference_;
  std::size_t failed_checks_ = 0;
};

// ---------------------------------------------------------------------
// Statistics and output.

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

template <class F>
double median_of(const std::vector<Rep>& reps, F f) {
  std::vector<double> v;
  for (const Rep& r : reps) v.push_back(f(r));
  return median(v);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_metrics_table(const std::string& title,
                         const std::vector<Metric>& metrics) {
  std::cout << "# " << title << "\n";
  for (const Metric& m : metrics) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "#   %-42s %18.9g %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    std::cout << buf;
  }
}

void print_exact_counts(const Runner& r, const Rep& rep) {
  const std::size_t trials = r.workload().trials;
  std::cout << "# exact: n=" << rep.n << " m=" << rep.m
            << " pairs=" << rep.pairs << " degeneracy=" << rep.degeneracy
            << " trials=" << trials << " vertex_rounds=" << rep.vertex_rounds
            << " edge_rounds=" << rep.edge_rounds
            << " worst_case=" << rep.worst_case << " vertex_averaged="
            << fmt(static_cast<double>(rep.vertex_rounds) /
                   static_cast<double>(rep.n * trials))
            << " report_bytes=" << rep.report_bytes << "\n";
}

/// Repeats `body` (one pipeline run, returning its wall time) until the
/// next run would end past `seconds`, with at least `min_runs` runs.
template <class F>
void repeat_for(double seconds, std::size_t min_runs, F body) {
  const auto start = Clock::now();
  std::vector<double> walls;
  for (;;) {
    walls.push_back(body());
    const double elapsed = seconds_between(start, Clock::now());
    if (walls.size() >= min_runs && elapsed + median(walls) > seconds) break;
  }
}

struct Totals {
  std::size_t attempted = 0, failed = 0;
};

/// Gated run: end-to-end metrics, medians over the pipeline runs.
std::vector<Metric> run_gated(Runner& r, double seconds, Totals& totals) {
  const auto epoch = Clock::now();
  std::vector<Rep> reps;
  std::vector<double> setups;
  repeat_for(seconds, 3, [&] {
    const auto t0 = Clock::now();
    reps.push_back(r.run(nullptr, epoch));
    const Rep& rep = reps.back();
    setups.push_back(rep.setup_s);
    // More set-up samples where set-up is short: up to five extra
    // set-ups, costing at most a tenth of the pipeline run.
    const auto extra = static_cast<std::size_t>(std::min(
        5.0, 0.1 * rep.pipeline_s / std::max(rep.setup_s, 1e-6)));
    for (std::size_t i = 0; i < extra; ++i) setups.push_back(r.setup_once());
    std::cout << "# run " << reps.size() << ": pipeline_s="
              << fmt(rep.pipeline_s) << " setup_s=" << fmt(rep.setup_s)
              << " solve_s=" << fmt(rep.solve_s)
              << " peak_rss_mb=" << fmt(rep.peak_rss_mb)
              << " failed=" << rep.failed << "/" << rep.attempted << "\n";
    return seconds_between(t0, Clock::now());
  });
  for (const Rep& rep : reps) {
    totals.attempted += rep.attempted;
    totals.failed += rep.failed;
  }
  print_exact_counts(r, reps.front());
  std::cout << "# medians over " << reps.size() << " pipeline runs, "
            << setups.size() << " set-ups\n";
  return {
      {"pipeline_s", median_of(reps, [](const Rep& x) { return x.pipeline_s; }),
       "s"},
      {"setup_s", median(setups), "s"},
      {"solve_s", median_of(reps, [](const Rep& x) { return x.solve_s; }), "s"},
      {"vertex_rounds_per_s",
       median_of(reps,
                 [](const Rep& x) {
                   return static_cast<double>(x.vertex_rounds) / x.solve_s;
                 }),
       "1/s"},
      {"peak_rss_mb",
       median_of(reps, [](const Rep& x) { return x.peak_rss_mb; }), "MB"},
  };
}

/// The composed phases of the three workloads' algorithms, in a fixed
/// list so every workload reports the same per-layer keys (0 where an
/// algorithm has no such phase).
/// Names are TraceCollector::phase_breakdown's, with "(run)" (an
/// algorithm that declares no phases) spelled "run".
const char* const kPhases[] = {"run",    "partition", "select",
                               "aux_plan", "flag",    "cross",
                               "intra_sweep", "line_plan"};

/// Traced run: untraced and traced pipeline runs alternate; per-layer
/// metrics are medians over the traced ones.
std::vector<Metric> run_traced(Runner& r, double seconds,
                               const std::string& out_prefix,
                               Totals& totals) {
  const auto epoch = Clock::now();
  SpanRecorder rec(epoch);
  std::vector<Rep> plain, traced;
  repeat_for(seconds, 2, [&] {
    const auto t0 = Clock::now();
    const bool traced_turn = plain.size() > traced.size();
    (traced_turn ? traced : plain)
        .push_back(r.run(traced_turn ? &rec : nullptr, epoch));
    const Rep& rep = traced_turn ? traced.back() : plain.back();
    std::cout << "# run " << plain.size() + traced.size()
              << (traced_turn ? " (traced)" : " (untraced)")
              << ": pipeline_s=" << fmt(rep.pipeline_s)
              << " solve_s=" << fmt(rep.solve_s) << " failed=" << rep.failed
              << "/" << rep.attempted << "\n";
    return seconds_between(t0, Clock::now());
  });
  for (const auto* reps : {&plain, &traced})
    for (const Rep& rep : *reps) {
      totals.attempted += rep.attempted;
      totals.failed += rep.failed;
    }

  const Rep& last = traced.back();
  print_exact_counts(r, last);

  // Self-time table of the last traced pipeline run.
  const auto table = self_times(rec.spans(), last.pipeline_span);
  double self_sum_us = 0.0;
  std::ostringstream st;
  st << "# self time per layer (last traced run, seconds)\n";
  for (const auto& [name, s] : table) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "#   %-22s spans=%-4zu total=%-12.6f self=%.6f\n",
                  name.c_str(), s.count, s.total_us / 1e6, s.self_us / 1e6);
    st << buf;
    self_sum_us += s.self_us;
  }
  const double untraced_pipeline =
      median_of(plain, [](const Rep& x) { return x.pipeline_s; });
  st << "#   sum of self times " << fmt(self_sum_us / 1e6)
     << " s; untraced pipeline_s median " << fmt(untraced_pipeline)
     << " s; ratio " << fmt(self_sum_us / 1e6 / untraced_pipeline) << "\n";
  std::cout << st.str();
  std::ofstream(out_prefix + ".selftime.txt") << st.str();
  write_chrome_trace(out_prefix + ".spans.json", rec.spans());
  std::cout << "# spans written to " << out_prefix << ".spans.json\n";

  const auto med = [&](auto f) { return median_of(traced, f); };
  const double engine_s = med([](const Rep& x) { return x.engine_s; });
  const double finalize_s = med([](const Rep& x) { return x.finalize_s; });
  const double check_s = med([](const Rep& x) { return x.check_s; });
  const double solve_s = med([](const Rep& x) { return x.solve_s; });
  const double pair_stream_s =
      med([](const Rep& x) { return x.pair_stream_s; });
  const double load_s = med([](const Rep& x) { return x.probe_load_s; });
  const Workload& w = r.workload();
  const double generate_s =
      w.source == Source::kLoadBin
          ? r.inputs().file_generate_s
          : med([](const Rep& x) { return x.graph_s; });
  const double from_source_s = w.source == Source::kRmat ? generate_s : load_s;
  const double n_trials = static_cast<double>(w.trials);

  std::vector<Metric> out = {
      {"graph.generate_s", generate_s, "s"},
      {"graph.load_s", load_s, "s"},
      {"graph.pair_stream_s", pair_stream_s, "s"},
      {"graph.csr_build_s.derived", from_source_s - 2.0 * pair_stream_s,
       "s"},
      {"graph.degeneracy_s", med([](const Rep& x) { return x.degeneracy_s; }),
       "s"},
      {"graph.setup_rss_mb", med([](const Rep& x) { return x.setup_rss_mb; }),
       "MB"},
      {"graph.edges", static_cast<double>(last.m), "count"},
      {"graph.pairs", static_cast<double>(last.pairs), "count"},
      {"graph.edge_yield",
       static_cast<double>(last.m) / static_cast<double>(last.pairs),
       "ratio"},
      {"sim.engine_s", engine_s, "s"},
      {"sim.engine_vertex_rounds_per_s",
       med([](const Rep& x) {
         return static_cast<double>(x.vertex_rounds) / x.engine_s;
       }),
       "1/s"},
      {"sim.finalize_s", finalize_s, "s"},
      {"validate.check_s", check_s, "s"},
      {"algo.glue_s.derived", solve_s - engine_s - finalize_s - check_s, "s"},
      {"sim.rounds", static_cast<double>(last.engine_rounds), "count"},
      {"sim.vertex_rounds", static_cast<double>(last.vertex_rounds), "count"},
      {"algo.vertex_averaged",
       static_cast<double>(last.vertex_rounds) /
           (static_cast<double>(last.n) * n_trials),
       "rounds"},
      {"algo.edge_averaged",
       static_cast<double>(last.edge_rounds) /
           (static_cast<double>(last.m) * n_trials),
       "rounds"},
      {"algo.worst_case", static_cast<double>(last.worst_case), "rounds"},
  };
  std::uint64_t phase_total = 0;
  for (const char* phase : kPhases) {
    const auto it = last.phase_round_sum.find(phase);
    const std::uint64_t v = it == last.phase_round_sum.end() ? 0 : it->second;
    phase_total += v;
    out.push_back({std::string("algo.phase.") + phase + ".round_sum",
                   static_cast<double>(v), "count"});
  }
  std::uint64_t traced_total = 0;
  for (const auto& [name, v] : last.phase_round_sum) {
    traced_total += v;
    std::cout << "# phase " << name << " round_sum=" << v << "\n";
  }
  if (phase_total != traced_total) {
    std::cerr << "perfbench: a phase outside the fixed phase list\n";
    ++totals.failed;
  }
  out.push_back({"report.write_s", med([](const Rep& x) { return x.report_s; }),
                 "s"});
  out.push_back({"trace.overhead_ratio",
                 solve_s / median_of(plain,
                                     [](const Rep& x) { return x.solve_s; }),
                 "ratio"});
  return out;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload "
               "rmat-luby|forest-mis|forest-matching|all [--seed N] "
               "[--seconds S] [--trace 0|1] [--rmat-seed N] "
               "[--forest-seed N] [--luby-seed N] [--data-dir DIR]\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  std::size_t used = 0;
  unsigned long long x = 0;
  try {
    x = std::stoull(v, &used, 10);
  } catch (const std::exception&) {
    usage(flag + " wants a non-negative integer");
  }
  if (used != v.size() || v.empty() || v[0] == '-')
    usage(flag + " wants a non-negative integer");
  return x;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  std::optional<std::uint64_t> rmat_seed, forest_seed, luby_seed;
  double seconds = 10.0;
  bool traced = false;
  std::string data_dir = ".bench_build/perfbench/data";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      workload = v;
    } else if (flag == "--seed") {
      seed = parse_u64(flag, v);
    } else if (flag == "--seconds") {
      seconds = static_cast<double>(parse_u64(flag, v));
      if (seconds < 1) usage("--seconds must be at least 1");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace wants 0 or 1");
      traced = v == "1";
    } else if (flag == "--rmat-seed") {
      rmat_seed = parse_u64(flag, v);
    } else if (flag == "--forest-seed") {
      forest_seed = parse_u64(flag, v);
    } else if (flag == "--luby-seed") {
      luby_seed = parse_u64(flag, v);
    } else if (flag == "--data-dir") {
      data_dir = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  std::vector<const Workload*> selected;
  if (workload == "all") {
    for (const Workload& w : kWorkloads) selected.push_back(&w);
  } else if (const Workload* w = find_workload(workload); w != nullptr) {
    selected.push_back(w);
  } else {
    usage("unknown workload '" + workload + "'");
  }
  const Seeds seeds{rmat_seed.value_or(seed), forest_seed.value_or(seed),
                    luby_seed.value_or(seed)};

  set_engine_threads(kEngineThreads);
  set_engine_sleep_hints(kSleepHints);
  set_engine_frontier_mode(kFrontier);
  set_engine_state_layout(kLayout);
  std::filesystem::create_directories(data_dir);
  registry::Registry::instance();

  std::cout << "# host: nproc=" << std::thread::hardware_concurrency()
            << " compiler=\"" << PERFBENCH_COMPILER << "\" build="
            << PERFBENCH_BUILD_TYPE << " flags=\"" << PERFBENCH_CXX_FLAGS
            << "\"\n"
            << "# engine (pinned; VALOCAL_* env ignored): threads="
            << kEngineThreads << " build_threads=" << kBuildThreads
            << " frontier=" << frontier_mode_name(kFrontier)
            << " layout=" << state_layout_name(kLayout)
            << " sleep_hints=" << (kSleepHints ? "on" : "off") << "\n"
            << "# seeds: rmat=" << seeds.rmat << " forest=" << seeds.forest
            << " luby_base=" << seeds.luby << "; seconds=" << seconds
            << " trace=" << (traced ? 1 : 0) << "\n";

  Totals totals;
  std::vector<Metric> all_metrics;
  for (const Workload* w : selected) {
    Runner runner(*w, seeds, data_dir);
    std::cout << "# workload " << w->name << ": algo=" << w->algo
              << " trials=" << w->trials << " graph=";
    if (w->source == Source::kRmat)
      std::cout << "rmat:" << w->rmat_scale << "x" << w->rmat_edge_factor;
    else
      std::cout << "forest_union(n=" << w->forest_n << ",a=" << w->forest_a
                << ")" << (w->source == Source::kLoadBin ? " via VALOCELB" : "");
    std::cout << "\n";
    const std::string out_prefix = data_dir + "/" + w->name + "-seed" +
                                   std::to_string(seed);
    Totals own;
    std::vector<Metric> metrics =
        traced ? run_traced(runner, seconds, out_prefix, own)
               : run_gated(runner, seconds, own);
    own.failed += runner.failed_checks();
    totals.attempted += own.attempted;
    totals.failed += own.failed;
    print_metrics_table(std::string(w->name) +
                            (traced ? " per-layer metrics" : " end-to-end metrics") +
                            " (failed " + std::to_string(own.failed) + " of " +
                            std::to_string(own.attempted) + " trials)",
                        metrics);
    for (Metric& m : metrics) {
      if (selected.size() > 1) m.name = std::string(w->name) + "/" + m.name;
      all_metrics.push_back(std::move(m));
    }
  }

  const bool correct = totals.failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << totals.attempted
            << ", \"failed\": " << totals.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < all_metrics.size(); ++i)
    std::cout << (i == 0 ? "" : ", ") << "\"" << all_metrics[i].name
              << "\": {\"value\": " << fmt(all_metrics[i].value)
              << ", \"unit\": \"" << all_metrics[i].unit << "\"}";
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
