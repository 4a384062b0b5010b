// wirebench: the repository's end-to-end benchmark.  Drives one workload
// from socket to store against an in-process ServiceServer + EngineHost,
// checks the store read back over the wire against a from-scratch
// evaluation, and prints the result line (perfbench/README.md).
//
//   wirebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--perturb] [--workers N] [--clusters N] [--no-ring]
//             [--strategy dred|counting|bf]
//             [--mode score|sweep|replay|capacity] [--list 16,32,64]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// The other modes are non-scored reproductions (README "Findings").
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "drive.hpp"
#include "obs/category.hpp"
#include "obs/trace_session.hpp"
#include "report.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using dsched::obs::Category;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool smoke = false;
  bool perturb = false;
  std::size_t workers = 0;
  std::string mode = "score";
  std::vector<double> list;
  Sizes sizes;
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "wirebench: %s\nusage: wirebench --workload "
               "recursive-churn|pipeline-ingest|tenant-mix --seed N "
               "--seconds S --trace 0|1 [--smoke] [--perturb] [--workers N] "
               "[--clusters N] [--no-ring] [--strategy S] "
               "[--mode score|sweep|replay|capacity] [--list a,b,c]\n",
               error.c_str());
  std::exit(2);
}

std::vector<double> ParseList(const std::string& text) {
  std::vector<double> out;
  std::stringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    out.push_back(std::stod(item));
  }
  return out;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage("missing value for " + flag);
      }
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        args.workload = value();
      } else if (flag == "--seed") {
        args.seed = std::stoull(value());
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value());
      } else if (flag == "--trace") {
        args.trace = std::stoi(value());
      } else if (flag == "--smoke") {
        args.smoke = true;
      } else if (flag == "--no-ring") {
        args.sizes.no_ring = true;
      } else if (flag == "--perturb") {
        args.perturb = true;
      } else if (flag == "--workers") {
        args.workers = std::stoul(value());
      } else if (flag == "--clusters") {
        args.sizes.clusters = std::stoul(value());
      } else if (flag == "--strategy") {
        args.sizes.strategy = value();
      } else if (flag == "--mode") {
        args.mode = value();
      } else if (flag == "--list") {
        args.list = ParseList(value());
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + flag);
    }
  }
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    Usage("unknown workload '" + args.workload + "'");
  }
  if (args.seconds <= 0.0 || (args.trace != 0 && args.trace != 1)) {
    Usage("--seconds must be > 0 and --trace 0 or 1");
  }
  args.sizes.smoke = args.smoke;
  if (args.workers == 0) {
    args.workers = std::max(1u, std::thread::hardware_concurrency());
  }
  return args;
}

PhaseConfig Phase(const Args& args, double warmup_s) {
  PhaseConfig config;
  config.warmup_s = args.smoke ? std::min(warmup_s, 0.2) : warmup_s;
  config.measure_s = args.seconds;
  return config;
}

/// The traced run measures four phases; each is capped so the run stays
/// well inside its time limit at any --seconds.
PhaseConfig TracePhase(const Args& args, double warmup_s) {
  PhaseConfig config = Phase(args, warmup_s);
  config.measure_s = std::min(config.measure_s, 10.0);
  return config;
}

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Workload-specific end-to-end figures, printed as notes: they are not in
/// every workload, so they are not scored (README "Metrics").
void NoteExtras(const LoopStats& st, Report* report) {
  char line[256];
  const std::size_t n = st.submit_ms.size();
  std::snprintf(line, sizeof line, "submit_p90_ms %.4f (n=%zu)",
                Percentile(st.submit_ms, 0.9), n);
  report->Note(line);
  if (n >= 1000) {
    std::snprintf(line, sizeof line, "submit_p99_ms %.4f (n=%zu)",
                  Percentile(st.submit_ms, 0.99), n);
  } else {
    std::snprintf(line, sizeof line,
                  "submit_p99_ms not reported: %zu submits < 1000", n);
  }
  report->Note(line);
  if (!st.query_ms.empty()) {
    std::snprintf(line, sizeof line,
                  "query_p50_ms %.4f query_p99_ms %.4f (n=%zu)",
                  Percentile(st.query_ms, 0.5), Percentile(st.query_ms, 0.99),
                  st.query_ms.size());
    report->Note(line);
  }
  if (!st.evolve_ms.empty()) {
    std::snprintf(line, sizeof line, "evolve_p50_ms %.4f (n=%zu)",
                  Percentile(st.evolve_ms, 0.5), st.evolve_ms.size());
    report->Note(line);
  }
  if (!st.late_ms.empty()) {
    std::snprintf(line, sizeof line, "send_late_p99_ms %.4f",
                  Percentile(st.late_ms, 0.99));
    report->Note(line);
  }
  std::snprintf(line, sizeof line, "failed_frac %.6f (%llu of %llu)",
                Ratio(static_cast<double>(st.failed),
                      static_cast<double>(st.attempted)),
                static_cast<unsigned long long>(st.failed),
                static_cast<unsigned long long>(st.attempted));
  report->Note(line);
}

/// After a scored run, throwaway set-ups repeat for this long, at least
/// twice.
constexpr double kSetupWindowS = 5.0;

/// Sets up and tears down again and again for `window_s` seconds, appending
/// each set-up time to `out`.
void SampleSetups(const WorkloadSpec& spec, std::size_t workers,
                  double window_s, std::vector<double>* out) {
  const double end = NowS() + window_s;
  for (int k = 0; k < 2 || NowS() < end; ++k) {
    // Hand the last torn-down store back to the kernel, so that every
    // set-up starts from the same heap.
    malloc_trim(0);
    WireBench bench(spec, workers);
    out->push_back(bench.Setup());
  }
}

/// --trace 0: set up, warm up, measure, check, then set up again and again
/// for a few seconds; setup_s is the median of every set-up.  On a shared
/// host, set-up speed can wander from one second to the next, so one
/// set-up, or a handful back to back, would read that moment rather than
/// the program (README, "Host noise").  The throwaway set-ups come after
/// the peak RSS is read, so they do not count in it.
int ScoreRun(const Args& args) {
  const WorkloadSpec spec = MakeWorkload(args.workload, args.seed, args.sizes);
  std::vector<double> setups;
  auto bench = std::make_unique<WireBench>(spec, args.workers);
  setups.push_back(bench->Setup());
  LoopStats st = bench->Run(Phase(args, 2.0));
  const double rss_mb = PeakRssMb();
  std::string why;
  const bool ok = bench->Check(args.perturb, &why, &st);
  bench.reset();
  SampleSetups(spec, args.workers, args.smoke ? 0.2 : kSetupWindowS, &setups);

  Report report;
  if (!ok) {
    report.Note("oracle mismatch: " + why);
  }
  NoteExtras(st, &report);
  char setup_line[160];
  std::snprintf(setup_line, sizeof setup_line,
                "setup_s over %zu set-ups: min %.6f p25 %.6f p75 %.6f max %.6f",
                setups.size(), Percentile(setups, 0.0), Percentile(setups, 0.25),
                Percentile(setups, 0.75), Percentile(setups, 1.0));
  report.Note(setup_line);
  report.Add("setup_s", Percentile(setups, 0.5), "s");
  report.Add("updates_per_s", st.UpdatesPerS(), "1/s");
  report.Add("submit_p50_ms", Percentile(st.submit_ms, 0.5), "ms");
  report.Add("peak_rss_mb", rss_mb, "MiB");
  report.Add("cpu_ms_per_update",
             Ratio(st.cpu_s * 1e3, static_cast<double>(st.phase_submits)),
             "ms");
  report.Print(ok, st.attempted, st.failed);
  return 0;
}

/// --trace 1: the stream at three depths, per-layer metrics.
int TraceRun(const Args& args) {
  const WorkloadSpec spec = MakeWorkload(args.workload, args.seed, args.sizes);
  const double p = static_cast<double>(args.workers);

  // Depth 1: the wire, untraced then traced on the same continuing stream.
  // The trace session outlives the server, whose threads may close a scope
  // opened while it was installed.
  dsched::obs::TraceSession wire_trace;
  WireBench wire(spec, args.workers);
  (void)wire.Setup();
  LoopStats plain = wire.Run(TracePhase(args, 2.0));
  const Counters net_before = Snapshot(wire.Metrics());
  FrameLog log;
  wire_trace.Install();
  LoopStats traced = wire.Run(TracePhase(args, 0.0), &log);
  wire_trace.Uninstall();
  const auto wire_snap = wire_trace.Snapshot();
  const Counters net_after = Snapshot(wire.Metrics());
  std::string why;
  LoopStats counts;
  const bool ok = wire.Check(args.perturb, &why, &counts);
  wire.Stop();
  const auto wire_ms = [&](Category c) {
    return static_cast<double>(wire_snap[static_cast<std::size_t>(c)].ticks) *
           wire_trace.DurationNs(1'000'000) * 1e-12;
  };
  const auto net_delta = [&](const std::string& key) {
    const auto a = net_after.find(key);
    const auto b = net_before.find(key);
    return static_cast<double>(a == net_after.end() ? 0 : a->second) -
           static_cast<double>(b == net_before.end() ? 0 : b->second);
  };

  // Depth 2: in-process sessions, same loop and rate.  A session publishes
  // its counters only when it closes (a K>1 pipeline also books busy time
  // only when it drains), so the measured phase is the difference between
  // a session closed after it and an identical one closed right after the
  // bulk load and warm-up.  Session ids are per host, so the names match.
  const PhaseConfig svc_phase = TracePhase(args, 2.0);
  Counters svc_before;
  {
    SessionBench baseline(spec, args.workers);
    baseline.Setup();
    PhaseConfig warmup_only = svc_phase;
    warmup_only.measure_s = 0.0;
    (void)baseline.Run(warmup_only);
    baseline.Close();
    svc_before = Snapshot(baseline.Metrics());
  }
  LoopStats inproc;
  Counters svc_after;
  {
    SessionBench sessions(spec, args.workers);
    sessions.Setup();
    inproc = sessions.Run(svc_phase);
    sessions.Close();
    svc_after = Snapshot(sessions.Metrics());
  }

  // Depth 3: one request at a time into the Database, traced.
  const ReplayStats rs = ReplayDatabase(spec, args.workers, TracePhase(args, 1.0), true);

  const double ops = static_cast<double>(traced.attempted);
  const double updates = static_cast<double>(rs.updates);
  const double wire_p50 = Percentile(plain.submit_ms, 0.5);
  const double svc_p50 = Percentile(inproc.submit_ms, 0.5);
  const double apply_p50 = Percentile(rs.apply_ms, 0.5);
  const double probes = static_cast<double>(rs.TraceCount(Category::kJoinProbe));
  const auto& run = rs.run;

  Report report;
  if (!ok) {
    report.Note("oracle mismatch: " + why);
  }
  NoteExtras(plain, &report);
  // net
  report.Add("net.wire_overhead_p50_ms", wire_p50 - svc_p50, "ms");
  report.Add("net.codec_us_per_frame", CodecUsPerFrame(log), "us");
  report.Add("net.read_ms_per_op", Ratio(wire_ms(Category::kNetRead), ops), "ms");
  report.Add("net.write_ms_per_op", Ratio(wire_ms(Category::kNetWrite), ops),
             "ms");
  report.Add("net.bytes_per_op",
             Ratio(net_delta("net.bytes_in") + net_delta("net.bytes_out"), ops),
             "bytes");
  report.Add("net.backpressure_stalls", net_delta("net.backpressure_stalls"),
             "count");
  // service
  report.Add("service.submit_p50_ms", svc_p50, "ms");
  report.Add("service.submit_p99_ms", Percentile(inproc.submit_ms, 0.99), "ms");
  report.Add("service.overhead_p50_ms", svc_p50 - apply_p50, "ms");
  report.Add("service.query_p50_ms", Percentile(inproc.query_ms, 0.5), "ms");
  report.Add("service.evolve_p50_ms", Percentile(inproc.evolve_ms, 0.5), "ms");
  report.Add("service.queue_depth_max", SessionMax(svc_after, "queue_depth"),
             "count");
  report.Add("service.blocked_submits",
             SessionDelta(svc_before, svc_after, "blocked_submits"), "count");
  report.Add("service.pipeline.overlap",
             Ratio(SessionDelta(svc_before, svc_after, "pipeline.cascade_ns"),
                   SessionDelta(svc_before, svc_after, "pipeline.busy_ns")),
             "ratio");
  report.Add("service.pipeline.stall_ms_per_update",
             Ratio(SessionDelta(svc_before, svc_after, "pipeline.stall_ns") * 1e-6,
                   SessionDelta(svc_before, svc_after, "applied")),
             "ms");
  report.Add("service.pipeline.inflight_max",
             SessionMax(svc_after, "pipeline.inflight_high_water"), "count");
  // datalog
  report.Add("datalog.apply_p50_ms", apply_p50, "ms");
  report.Add("datalog.apply_vs_materialize",
             Ratio(Ratio(rs.apply_s, updates), rs.final_materialize_s), "ratio");
  report.Add("datalog.us_per_maint_op",
             Ratio(rs.apply_s * 1e6, static_cast<double>(rs.maint_ops)), "us");
  report.Add("datalog.maint_ops_per_update",
             Ratio(static_cast<double>(rs.maint_ops), updates), "count");
  report.Add("datalog.overdelete_per_deleted",
             Ratio(static_cast<double>(rs.overdeleted),
                   static_cast<double>(rs.deleted)),
             "ratio");
  report.Add("datalog.maint.phase_ms_per_update",
             Ratio(rs.TraceMs(Category::kMaintPhase), updates), "ms");
  report.Add("datalog.join.applications_per_update", Ratio(probes, updates),
             "count");
  report.Add("datalog.join.us_per_application",
             Ratio(rs.TraceMs(Category::kJoinProbe) * 1e3, probes), "us");
  report.Add("datalog.join.emit_per_application",
             Ratio(static_cast<double>(rs.TraceValue(Category::kJoinEmit)), probes),
             "count");
  report.Add("datalog.store.index_rebuilds_per_update",
             Ratio(static_cast<double>(rs.index_rebuilds), updates), "count");
  report.Add("datalog.store.index_extend_rows_per_update",
             Ratio(static_cast<double>(rs.index_extend_rows), updates), "rows");
  report.Add("datalog.materialize_s", rs.materialize_s, "s");
  report.Add("datalog.store.absorb_ms_per_update",
             Ratio(rs.TraceMs(Category::kStoreAbsorb), updates), "ms");
  report.Add("datalog.store.publish_rows_per_update",
             Ratio(static_cast<double>(rs.publish_rows), updates), "rows");
  report.Add("datalog.store.rows", static_cast<double>(rs.store_rows), "rows");
  report.Add("datalog.store.bytes", static_cast<double>(rs.store_bytes), "bytes");
  report.Add("datalog.store.shard_skew", rs.shard_skew, "ratio");
  report.Add("datalog.evolve.recompile_ms",
             Ratio(rs.TraceMs(Category::kEvolveRecompile),
                   static_cast<double>(rs.TraceCount(Category::kEvolveRecompile))),
             "ms");
  report.Add("datalog.evolve.maintain_ms",
             Ratio(rs.TraceMs(Category::kEvolveMaintain),
                   static_cast<double>(rs.TraceCount(Category::kEvolveMaintain))),
             "ms");
  // runtime
  report.Add("runtime.worker_busy_frac",
             Ratio(rs.TraceMs(Category::kMaintPhase), p * run.wall_seconds * 1e3),
             "ratio");
  report.Add("runtime.tasks_per_update",
             Ratio(static_cast<double>(run.executed), updates), "count");
  report.Add("runtime.dispatch_ms_per_update",
             Ratio((run.dispatch_wall_seconds - run.sched_wall_seconds) * 1e3,
                   updates),
             "ms");
  report.Add("runtime.idle_ms_per_update",
             Ratio(run.idle_wall_seconds * 1e3, updates), "ms");
  report.Add("runtime.dispatch_batch_avg", run.AvgDispatchBatch(), "count");
  report.Add("runtime.pool.steals_per_update",
             Ratio(static_cast<double>(run.pool_steals), updates), "count");
  report.Add("runtime.pool.sleeps_per_update",
             Ratio(static_cast<double>(run.pool_sleeps), updates), "count");
  report.Add("runtime.pool.wakeups_per_update",
             Ratio(static_cast<double>(run.pool_wakeups), updates), "count");
  report.Add("runtime.mem_peak_bytes", static_cast<double>(run.mem_peak_bytes),
             "bytes");
  // sched
  report.Add("sched.pop_ms_per_update",
             Ratio(run.sched_wall_seconds * 1e3, updates), "ms");
  report.Add("sched.pop_share",
             Ratio(run.sched_wall_seconds, run.wall_seconds), "ratio");
  // obs, loadgen
  report.Add("obs.trace_overhead_frac",
             Ratio(Percentile(traced.submit_ms, 0.5), wire_p50) - 1.0, "ratio");
  report.Add("loadgen.send_late_p99_ms", Percentile(plain.late_ms, 0.99), "ms");

  const std::uint64_t attempted = plain.attempted + traced.attempted + counts.attempted;
  const std::uint64_t failed = plain.failed + traced.failed + counts.failed;
  report.Print(ok, attempted, failed);
  return 0;
}

/// Non-scored: recursive-churn's per-update cost against store size.
int SweepRun(const Args& args) {
  std::vector<double> list = args.list;
  if (list.empty()) {
    list = args.smoke ? std::vector<double>{2, 4} : std::vector<double>{16, 32, 64, 128};
  }
  std::printf("%8s %10s %14s %14s %16s %16s\n", "clusters", "tc_rows",
              "wire_p50_ms", "apply_p50_ms", "maint_ops/upd", "materialize_ms");
  for (const double clusters : list) {
    Sizes sizes = args.sizes;
    sizes.clusters = static_cast<std::size_t>(clusters);
    const WorkloadSpec spec = MakeWorkload("recursive-churn", args.seed, sizes);
    WireBench wire(spec, args.workers);
    (void)wire.Setup();
    const LoopStats st = wire.Run(Phase(args, 1.0));
    wire.Stop();
    const ReplayStats rs = ReplayDatabase(spec, args.workers, Phase(args, 0.5), false);
    std::printf("%8.0f %10llu %14.3f %14.3f %16.1f %16.3f\n", clusters,
                static_cast<unsigned long long>(rs.store_rows),
                Percentile(st.submit_ms, 0.5), Percentile(rs.apply_ms, 0.5),
                Ratio(static_cast<double>(rs.maint_ops),
                      static_cast<double>(rs.updates)),
                rs.final_materialize_s * 1e3);
    std::fflush(stdout);
  }
  return 0;
}

/// Non-scored: per-batch apply times at depth 3, e.g. under --strategy bf.
int ReplayRun(const Args& args) {
  const WorkloadSpec spec = MakeWorkload(args.workload, args.seed, args.sizes);
  PhaseConfig config = Phase(args, 0.0);
  config.max_updates = args.list.empty() ? 10 : static_cast<std::size_t>(args.list[0]);
  const ReplayStats rs = ReplayDatabase(spec, args.workers, config, false);
  for (std::size_t i = 0; i < rs.apply_ms.size(); ++i) {
    std::printf("batch %zu apply_ms %.3f\n", i + 1, rs.apply_ms[i]);
  }
  std::printf("strategy %s batches %zu p50_ms %.3f max_ms %.3f\n",
              spec.sessions.front().strategy.c_str(), rs.apply_ms.size(),
              Percentile(rs.apply_ms, 0.5), Percentile(rs.apply_ms, 1.0));
  return 0;
}

/// Non-scored: tenant-mix latency at fixed offered rates (req/s in total).
int CapacityRun(const Args& args) {
  std::vector<double> list = args.list;
  if (list.empty()) {
    list = {400, 800, 1200, 1600, 2000, 2400};
  }
  const double limit_ms = 10.0;
  double best = 0.0;
  std::printf("%10s %12s %12s %12s %12s %10s\n", "offered", "updates/s",
              "offered_upd", "p50_ms", "p99_ms", "meets");
  for (const double total : list) {
    Sizes sizes = args.sizes;
    sizes.rate_per_conn = total / 4.0;
    const WorkloadSpec spec = MakeWorkload("tenant-mix", args.seed, sizes);
    WireBench wire(spec, args.workers);
    (void)wire.Setup();
    const LoopStats st = wire.Run(Phase(args, 1.0));
    wire.Stop();
    const double offered_updates =
        static_cast<double>(st.phase_submits) / args.seconds;
    const double p99 = Percentile(st.submit_ms, 0.99);
    // No growing backlog: the last in-window submit finished within 10% of
    // the window after it closed.
    const bool meets = st.failed == 0 && p99 <= limit_ms &&
                       st.UpdatesPerS() >= 0.9 * offered_updates;
    if (meets) {
      best = std::max(best, total);
    }
    std::printf("%10.0f %12.1f %12.1f %12.3f %12.3f %10s\n", total,
                st.UpdatesPerS(), offered_updates, Percentile(st.submit_ms, 0.5),
                p99, meets ? "yes" : "no");
    std::fflush(stdout);
  }
  std::printf("capacity: highest offered rate with submit p99 <= %.0f ms and "
              "no backlog: %.0f req/s\n",
              limit_ms, best);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  try {
    if (args.mode == "score") {
      return args.trace == 0 ? ScoreRun(args) : TraceRun(args);
    }
    if (args.mode == "sweep") {
      return SweepRun(args);
    }
    if (args.mode == "replay") {
      return ReplayRun(args);
    }
    if (args.mode == "capacity") {
      return CapacityRun(args);
    }
    Usage("unknown mode '" + args.mode + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wirebench: %s\n", e.what());
    return 1;
  }
}
