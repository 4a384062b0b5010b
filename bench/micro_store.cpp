// Sharded-store benchmark: single-writer inserts, probes, and erases
// against the hash-sharded Relation, sweeping shard counts.  A relation has
// one writer at a time (the maintenance phase that owns it), so every cell
// drives the direct Insert/Contains/Erase path from one thread.  Emits
// BENCH_store.json so future PRs can track the trajectory.
//
// Workloads (arity-2 tuples, multiplicative key scatter):
//   serial_insert_pP    — direct Insert() into P shards.
//   probe_pP            — Contains() over a populated store, alternating
//                         hits and misses.
//   mixed_erase_pP      — insert then erase every other tuple.
//
// Every insert cell must converge to the same relation contents: the
// harness cross-checks an order-independent checksum across shard counts,
// so the bench doubles as a stress test.
//
// Usage: micro_store [--out=BENCH_store.json] [--scale=1.0] [--trace=out.json]
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "datalog/relation.hpp"
#include "util/timer.hpp"

namespace dsched::bench {

using datalog::Relation;
using datalog::RowView;
using datalog::Tuple;
using datalog::Value;

// Odd-constant multiply (a bijection mod 2^64) so keys land in arbitrary
// shards and slots; sequential keys would serialize on one shard.
std::uint64_t Scatter(std::uint64_t i) { return i * 0x9e3779b97f4a7c15ULL; }

Tuple MakeTuple(std::uint64_t i) {
  const std::uint64_t k = Scatter(i);
  return {Value::Int(static_cast<std::int64_t>(k & 0x7fffffffULL)),
          Value::Int(static_cast<std::int64_t>(i))};
}

/// Order-independent content fingerprint (shard-major iteration order
/// differs across shard counts; addition does not care).
std::uint64_t Checksum(const Relation& r) {
  std::uint64_t sum = 0;
  r.ForEachRow([&sum](std::uint32_t, RowView row) {
    sum += row[0].Bits() * 3 + row[1].Bits();
  });
  return sum;
}

struct Row {
  std::string workload;
  std::uint64_t rows = 0;      ///< tuples touched per rep
  std::uint64_t checksum = 0;  ///< content fingerprint after the last rep
  double seconds = 0.0;

  [[nodiscard]] double Mops(std::size_t reps) const {
    return seconds > 0.0
               ? static_cast<double>(rows) * static_cast<double>(reps) /
                     seconds / 1e6
               : 0.0;
  }
};

void Report(const Row& r, std::size_t reps) {
  std::printf("%-24s %10llu rows  %10s  %7.2f Mop/s\n", r.workload.c_str(),
              static_cast<unsigned long long>(r.rows),
              util::FormatSeconds(r.seconds).c_str(), r.Mops(reps));
}

}  // namespace dsched::bench

int main(int argc, char** argv) {
  using namespace dsched;
  using namespace dsched::bench;
  MicroBenchArgs args;
  args.out = "BENCH_store.json";
  if (!ParseMicroBenchArgs(argc, argv, &args)) {
    return 2;
  }
  const std::string& out_path = args.out;
  const std::string& trace_path = args.trace;
  const double scale = args.scale;
  const auto session = MaybeStartTrace(trace_path);

  const auto n_rows = static_cast<std::uint64_t>(200000.0 * scale);
  const std::size_t reps = 3;
  const std::size_t shard_counts[] = {1, 4, 16};
  std::vector<Row> rows;
  std::uint64_t expected_checksum = 0;  // filled by the first insert cell

  const auto check = [&expected_checksum](const Row& row) {
    if (expected_checksum == 0) {
      expected_checksum = row.checksum;
    } else if (row.checksum != expected_checksum) {
      std::fprintf(stderr, "%s checksum mismatch: %llu != %llu\n",
                   row.workload.c_str(),
                   static_cast<unsigned long long>(row.checksum),
                   static_cast<unsigned long long>(expected_checksum));
      std::exit(1);
    }
  };

  // --- serial_insert_pP: one thread, direct mutators.
  for (const std::size_t p : shard_counts) {
    Row row;
    row.workload = "serial_insert_p" + std::to_string(p);
    row.rows = n_rows;
    util::WallTimer timer;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      Relation r(2, p);
      r.Reserve(n_rows);
      for (std::uint64_t i = 0; i < n_rows; ++i) {
        r.Insert(MakeTuple(i));
      }
      row.checksum = Checksum(r);
    }
    row.seconds = timer.ElapsedSeconds();
    check(row);
    Report(row, reps);
    rows.push_back(row);
  }

  // --- probe_pP: membership checks, alternating hits and misses.
  for (const std::size_t p : {std::size_t{1}, std::size_t{16}}) {
    Relation r(2, p);
    r.Reserve(n_rows);
    for (std::uint64_t i = 0; i < n_rows; ++i) {
      r.Insert(MakeTuple(i));
    }
    Row row;
    row.workload = "probe_p" + std::to_string(p);
    row.rows = n_rows;
    std::uint64_t hits = 0;
    util::WallTimer timer;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      for (std::uint64_t i = 0; i < n_rows; ++i) {
        // Odd offsets miss: MakeTuple is injective in i, so i + n_rows
        // never collides with an inserted tuple.
        hits += r.Contains(MakeTuple(i % 2 == 0 ? i : i + n_rows)) ? 1u : 0u;
      }
    }
    row.seconds = timer.ElapsedSeconds();
    row.checksum = hits;
    if (hits != reps * ((n_rows + 1) / 2)) {
      std::fprintf(stderr, "%s hit-count mismatch: %llu\n",
                   row.workload.c_str(),
                   static_cast<unsigned long long>(hits));
      return 1;
    }
    Report(row, reps);
    rows.push_back(row);
  }

  // --- mixed_erase_pP: insert everything, erase every other tuple.
  for (const std::size_t p : {std::size_t{1}, std::size_t{16}}) {
    Row row;
    row.workload = "mixed_erase_p" + std::to_string(p);
    row.rows = n_rows + n_rows / 2;
    util::WallTimer timer;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      Relation r(2, p);
      r.Reserve(n_rows);
      for (std::uint64_t i = 0; i < n_rows; ++i) {
        r.Insert(MakeTuple(i));
      }
      for (std::uint64_t i = 0; i < n_rows; i += 2) {
        r.Erase(MakeTuple(i));
      }
      row.checksum = r.Size();
    }
    row.seconds = timer.ElapsedSeconds();
    if (row.checksum != n_rows / 2) {
      std::fprintf(stderr, "%s size mismatch\n", row.workload.c_str());
      return 1;
    }
    Report(row, reps);
    rows.push_back(row);
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"micro_store\",\n  \"scale\": %f,\n",
               scale);
  std::fprintf(out, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"workload\": \"%s\", \"rows\": %llu, "
                 "\"checksum\": %llu, \"seconds\": %.6f, \"mops\": %.2f}%s\n",
                 r.workload.c_str(), static_cast<unsigned long long>(r.rows),
                 static_cast<unsigned long long>(r.checksum), r.seconds,
                 r.Mops(reps), i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());

  obs::MetricsRegistry metrics;
  for (const Row& r : rows) {
    const std::string key = "micro_store." + r.workload + ".";
    metrics.Set(key + "rows", r.rows);
    metrics.Set(key + "checksum", r.checksum);
    metrics.Set(key + "seconds_ns",
                static_cast<std::uint64_t>(r.seconds * 1e9));
    metrics.Set(key + "mops_x100",
                static_cast<std::uint64_t>(r.Mops(reps) * 100.0));
  }
  PrintMetrics(metrics);
  FinishTrace(session.get(), trace_path);
  return 0;
}
