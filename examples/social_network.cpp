// Social-network analytics under a live update stream — the "data mining"
// workload family the paper's introduction motivates, at a scale where the
// incremental-vs-recompute gap is measurable.
//
// The program maintains friend-of-friend suggestions, mutual-follow pairs,
// follower counts (aggregation), and celebrity detection over a randomly
// evolving follow graph.  Each round applies a small batch of
// follow/unfollow events twice: incrementally (DRed) against the live
// database, and from scratch against a fresh one — printing both times.
// The final batch runs through the parallel engine on worker threads.
#include <cstdio>
#include <memory>
#include <set>

#include "datalog/database.hpp"
#include "service/engine_host.hpp"
#include "service/session.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

constexpr const char* kProgram = R"(
  mutual(A, B) :- follows(A, B), follows(B, A).
  fof(A, C) :- follows(A, B), follows(B, C), A != C.
  suggest(A, C) :- fof(A, C), !follows(A, C).
  followers(U; count()) :- follows(_, U).
  celebrity(U) :- followers(U, N), N >= 25.
  fanclub(U; count()) :- mutual(U, _).
  reachsum(; sum(N)) :- followers(_, N).
)";

constexpr int kUsers = 250;
constexpr int kInitialFollows = 3000;
constexpr int kRounds = 5;
constexpr int kBatch = 16;

}  // namespace

int main() {
  using namespace dsched;
  using datalog::Database;
  using datalog::Tuple;
  using datalog::Value;

  util::Rng rng(2026);
  std::set<std::pair<int, int>> edges;
  while (edges.size() < kInitialFollows) {
    // Preferential-ish attachment: low ids are popular.
    const int a = static_cast<int>(rng.NextBelow(kUsers));
    const int b = static_cast<int>(
        rng.NextBelow(rng.NextBool(0.3) ? 40 : kUsers));
    if (a != b) {
      edges.emplace(a, b);
    }
  }

  Database live(kProgram);
  for (const auto& [a, b] : edges) {
    live.Insert("follows", {Value::Int(a), Value::Int(b)});
  }
  {
    util::WallTimer timer;
    live.Materialize();
    std::printf(
        "materialized %d users / %zu follows in %s — %zu suggestions, "
        "%zu celebrities\n",
        kUsers, edges.size(),
        util::FormatSeconds(timer.ElapsedSeconds()).c_str(),
        live.Query("suggest").size(), live.Query("celebrity").size());
  }

  util::TextTable table("incremental vs from-scratch per update batch");
  table.SetHeader({"round", "batch", "incremental", "from scratch", "speedup",
                   "suggestions"});

  for (int round = 1; round <= kRounds; ++round) {
    // Build one batch of follow/unfollow events.
    auto update = live.MakeUpdate();
    int follows = 0;
    int unfollows = 0;
    for (int i = 0; i < kBatch; ++i) {
      if (!edges.empty() && rng.NextBool(0.4)) {
        auto it = edges.begin();
        std::advance(it, static_cast<long>(rng.NextBelow(edges.size())));
        update.Delete("follows", {Value::Int(it->first), Value::Int(it->second)});
        edges.erase(it);
        ++unfollows;
      } else {
        const int a = static_cast<int>(rng.NextBelow(kUsers));
        const int b = static_cast<int>(rng.NextBelow(kUsers));
        if (a != b && edges.emplace(a, b).second) {
          update.Insert("follows", {Value::Int(a), Value::Int(b)});
          ++follows;
        }
      }
    }

    util::WallTimer incremental_timer;
    live.ApplyRequest(update.Request());
    const double incremental_seconds = incremental_timer.ElapsedSeconds();

    // From-scratch reference over the same base.
    util::WallTimer scratch_timer;
    Database fresh(kProgram);
    for (const auto& [a, b] : edges) {
      fresh.Insert("follows", {Value::Int(a), Value::Int(b)});
    }
    fresh.Materialize();
    const double scratch_seconds = scratch_timer.ElapsedSeconds();

    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.1fx",
                  scratch_seconds / incremental_seconds);
    table.AddRow({std::to_string(round),
                  "+" + std::to_string(follows) + "/-" +
                      std::to_string(unfollows),
                  util::FormatSeconds(incremental_seconds),
                  util::FormatSeconds(scratch_seconds), speedup,
                  std::to_string(live.Query("suggest").size())});

    // Sanity: the live store matches the fresh one.
    if (live.Query("suggest").size() != fresh.Query("suggest").size()) {
      std::printf("MISMATCH against from-scratch reference!\n");
      return 1;
    }
  }
  std::printf("%s", table.ToString().c_str());

  // Final batch through the service layer: the host owns the shared worker
  // pool, the session owns this program's store + scheduler + serialized
  // update queue, and the cascade runs on the host's workers under the
  // hybrid scheduler (src/service/).
  service::EngineHost host({.workers = 4});
  service::SessionOptions session_options;
  session_options.name = "social";
  session_options.scheduler_spec = "hybrid";
  auto session = host.OpenSession(kProgram, session_options);
  for (const auto& [a, b] : edges) {
    session->Insert("follows", {Value::Int(a), Value::Int(b)});
  }
  (void)session->Materialize();

  auto update = session->MakeUpdate();
  for (int i = 0; i < kBatch; ++i) {
    const int a = static_cast<int>(rng.NextBelow(kUsers));
    const int b = static_cast<int>(rng.NextBelow(kUsers));
    if (a != b && edges.emplace(a, b).second) {
      update.Insert("follows", {Value::Int(a), Value::Int(b)});
    }
  }
  util::WallTimer parallel_timer;
  const service::UpdateOutcome outcome = session->Submit(update).get();
  const double parallel_seconds = parallel_timer.ElapsedSeconds();
  // The live (serial) database replays the same batch as a cross-check.
  (void)live.ApplyRequest(update.Request());
  std::printf(
      "service batch (epoch %llu, hybrid on %zu shared workers): +%zu -%zu "
      "derived tuples, %llu cascade tasks in %s\n",
      static_cast<unsigned long long>(outcome.epoch), host.NumWorkers(),
      outcome.update.total_inserted, outcome.update.total_deleted,
      static_cast<unsigned long long>(outcome.run.executed),
      util::FormatSeconds(parallel_seconds).c_str());
  if (session->Query("suggest").size() != live.Query("suggest").size()) {
    std::printf("MISMATCH against the serial replay!\n");
    return 1;
  }
  return 0;
}
