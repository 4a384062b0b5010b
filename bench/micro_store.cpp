// Store benchmark: single-writer inserts, probes, and erases against one
// Relation.  A relation has one writer at a time (the maintenance phase that
// owns it), so every cell drives the direct Insert/Contains/Erase path from
// one thread.  Emits BENCH_store.json so future changes can track the
// trajectory.
//
// Workloads (arity-2 tuples, multiplicative key scatter):
//   serial_insert       — direct Insert() of every tuple.
//   probe               — Contains() over a populated store, alternating
//                         hits and misses.
//   mixed_erase         — insert then erase every other tuple.
//
// Each cell records a content checksum (order-independent sum, hit count,
// or surviving size) that the regression gate compares exactly.
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
// slots; sequential keys would probe in lockstep.
std::uint64_t Scatter(std::uint64_t i) { return i * 0x9e3779b97f4a7c15ULL; }

Tuple MakeTuple(std::uint64_t i) {
  const std::uint64_t k = Scatter(i);
  return {Value::Int(static_cast<std::int64_t>(k & 0x7fffffffULL)),
          Value::Int(static_cast<std::int64_t>(i))};
}

/// Order-independent content fingerprint.
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
  std::vector<Row> rows;

  // --- serial_insert: one thread, direct mutators.
  {
    Row row;
    row.workload = "serial_insert";
    row.rows = n_rows;
    util::WallTimer timer;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      Relation r(2);
      r.Reserve(n_rows);
      for (std::uint64_t i = 0; i < n_rows; ++i) {
        r.Insert(MakeTuple(i));
      }
      row.checksum = Checksum(r);
    }
    row.seconds = timer.ElapsedSeconds();
    Report(row, reps);
    rows.push_back(row);
  }

  // --- probe: membership checks, alternating hits and misses.
  {
    Relation r(2);
    r.Reserve(n_rows);
    for (std::uint64_t i = 0; i < n_rows; ++i) {
      r.Insert(MakeTuple(i));
    }
    Row row;
    row.workload = "probe";
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

  // --- mixed_erase: insert everything, erase every other tuple.
  {
    Row row;
    row.workload = "mixed_erase";
    row.rows = n_rows + n_rows / 2;
    util::WallTimer timer;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      Relation r(2);
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
