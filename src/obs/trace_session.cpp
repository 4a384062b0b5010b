#include "obs/trace_session.hpp"

#include <algorithm>
#include <cstdio>
#include <cinttypes>

namespace dsched::obs {

namespace {

/// Global generation counter: every session object gets a unique value, so
/// a thread's cached buffer pointer can never be mistaken for another
/// session's.
std::atomic<std::uint64_t> g_generation{0};

struct ThreadCache {
  std::uint64_t generation = 0;
  ThreadBuffer* buffer = nullptr;
};

thread_local ThreadCache t_cache;

void AppendJsonEscaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// Human units for a nanosecond figure: "1.234 s" / "5.678 ms" / "910 ns".
std::string FormatNs(double ns) {
  char buf[48];
  if (ns >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.3f s", ns / 1e9);
  } else if (ns >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.3f ms", ns / 1e6);
  } else if (ns >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.3f us", ns / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f ns", ns);
  }
  return buf;
}

}  // namespace

const char* CategoryName(Category category) {
  switch (category) {
    case Category::kSchedPopLevelBased:
      return "sched.pop.levelbased";
    case Category::kSchedPopLookahead:
      return "sched.pop.lbl";
    case Category::kSchedPopLogicBlox:
      return "sched.pop.logicblox";
    case Category::kSchedScanLogicBlox:
      return "sched.scan.logicblox";
    case Category::kSchedPopSignal:
      return "sched.pop.signal";
    case Category::kSchedPopOracle:
      return "sched.pop.oracle";
    case Category::kSchedPopHybrid:
      return "sched.pop.hybrid";
    case Category::kSchedPopMeta:
      return "sched.pop.meta";
    case Category::kExecDispatch:
      return "exec.dispatch";
    case Category::kExecDrain:
      return "exec.drain";
    case Category::kExecIdle:
      return "exec.idle";
    case Category::kPoolSteal:
      return "pool.steal";
    case Category::kPoolSleep:
      return "pool.sleep";
    case Category::kJoinPlan:
      return "join.plan";
    case Category::kJoinProbe:
      return "join.probe";
    case Category::kJoinEmit:
      return "join.emit";
    case Category::kStoreAbsorb:
      return "store.absorb";
    case Category::kMaintPhase:
      return "maint.phase";
    case Category::kMaintOverdelete:
      return "maint.overdelete";
    case Category::kMaintOverdeleteAvoided:
      return "maint.overdelete_avoided";
    case Category::kMaintBackwardProbe:
      return "maint.backward_probe";
    case Category::kPipelineStall:
      return "pipeline.stall";
    case Category::kPipelineFinalize:
      return "pipeline.finalize";
    case Category::kMemAcquire:
      return "mem.acquire";
    case Category::kMemRelease:
      return "mem.release";
    case Category::kMemDeferred:
      return "mem.deferred";
    case Category::kMetaKill:
      return "meta.kill";
    case Category::kNetRead:
      return "net.read";
    case Category::kNetWrite:
      return "net.write";
    case Category::kNetFrameIn:
      return "net.frame_in";
    case Category::kNetFrameOut:
      return "net.frame_out";
    case Category::kNetBackpressure:
      return "net.backpressure";
    case Category::kNetIdleReap:
      return "net.idle_reap";
    case Category::kEvolveRecompile:
      return "evolve.recompile";
    case Category::kEvolveMaintain:
      return "evolve.maintain";
    case Category::kEvolveConePred:
      return "evolve.cone_preds";
    case Category::kEvolveReusedComponent:
      return "evolve.reused_components";
    case Category::kCategoryCount:
      break;
  }
  return "?";
}

const char* CategoryGroup(Category category) {
  switch (category) {
    case Category::kSchedPopLevelBased:
    case Category::kSchedPopLookahead:
    case Category::kSchedPopLogicBlox:
    case Category::kSchedScanLogicBlox:
    case Category::kSchedPopSignal:
    case Category::kSchedPopOracle:
    case Category::kSchedPopHybrid:
    case Category::kSchedPopMeta:
      return "sched";
    case Category::kExecDispatch:
    case Category::kExecDrain:
    case Category::kExecIdle:
      return "exec";
    case Category::kPoolSteal:
    case Category::kPoolSleep:
      return "pool";
    case Category::kJoinPlan:
    case Category::kJoinProbe:
    case Category::kJoinEmit:
      return "join";
    case Category::kStoreAbsorb:
      return "store";
    case Category::kMaintPhase:
    case Category::kMaintOverdelete:
    case Category::kMaintOverdeleteAvoided:
    case Category::kMaintBackwardProbe:
      return "maint";
    case Category::kPipelineStall:
    case Category::kPipelineFinalize:
      return "pipeline";
    case Category::kMemAcquire:
    case Category::kMemRelease:
    case Category::kMemDeferred:
      return "mem";
    case Category::kMetaKill:
      return "meta";
    case Category::kNetRead:
    case Category::kNetWrite:
    case Category::kNetFrameIn:
    case Category::kNetFrameOut:
    case Category::kNetBackpressure:
    case Category::kNetIdleReap:
      return "net";
    case Category::kEvolveRecompile:
    case Category::kEvolveMaintain:
    case Category::kEvolveConePred:
    case Category::kEvolveReusedComponent:
      return "evolve";
    case Category::kCategoryCount:
      break;
  }
  return "?";
}

bool IsCounterCategory(Category category) {
  return category == Category::kPoolSteal ||
         category == Category::kJoinEmit ||
         category == Category::kMaintOverdelete ||
         category == Category::kMaintOverdeleteAvoided ||
         category == Category::kMaintBackwardProbe ||
         category == Category::kPipelineFinalize ||
         category == Category::kMemAcquire ||
         category == Category::kMemRelease ||
         category == Category::kMemDeferred ||
         category == Category::kMetaKill ||
         category == Category::kNetFrameIn ||
         category == Category::kNetFrameOut ||
         category == Category::kNetBackpressure ||
         category == Category::kNetIdleReap ||
         category == Category::kEvolveConePred ||
         category == Category::kEvolveReusedComponent;
}

std::atomic<TraceSession*> TraceSession::current_{nullptr};

TraceSession::TraceSession() : TraceSession(Options{}) {}

TraceSession::TraceSession(Options options)
    : options_(options),
      calibration_(ClockCalibration::Measure()),
      generation_(g_generation.fetch_add(1, std::memory_order_relaxed) + 1) {}

TraceSession::~TraceSession() { Uninstall(); }

void TraceSession::Install() {
  current_.store(this, std::memory_order_release);
}

void TraceSession::Uninstall() {
  TraceSession* expected = this;
  current_.compare_exchange_strong(expected, nullptr,
                                   std::memory_order_acq_rel);
}

ThreadBuffer& TraceSession::BufferForThisThread() {
  ThreadCache& cache = t_cache;
  if (cache.generation != generation_) {
    const std::lock_guard<std::mutex> lock(registry_mutex_);
    auto buffer = std::make_unique<ThreadBuffer>(
        static_cast<std::uint32_t>(buffers_.size()), options_.ring_capacity);
    cache.buffer = buffer.get();
    cache.generation = generation_;
    buffers_.push_back(std::move(buffer));
  }
  return *cache.buffer;
}

void TraceSession::RecordScope(Category category, std::uint64_t begin_ticks,
                               std::uint64_t end_ticks) {
  ThreadBuffer& buffer = BufferForThisThread();
  CategoryAccum& accum = buffer.accum[static_cast<std::size_t>(category)];
  accum.count.fetch_add(1, std::memory_order_relaxed);
  accum.ticks.fetch_add(end_ticks > begin_ticks ? end_ticks - begin_ticks : 0,
                        std::memory_order_relaxed);
  buffer.ring.Push({begin_ticks, end_ticks, 0, category, EventKind::kScope});
}

void TraceSession::RecordCount(Category category, std::uint64_t delta) {
  ThreadBuffer& buffer = BufferForThisThread();
  CategoryAccum& accum = buffer.accum[static_cast<std::size_t>(category)];
  accum.count.fetch_add(1, std::memory_order_relaxed);
  accum.value.fetch_add(delta, std::memory_order_relaxed);
  const std::uint64_t now = NowTicks();
  buffer.ring.Push({now, now, delta, category, EventKind::kCounter});
}

void TraceSession::Marker(const std::string& label) {
  const std::uint32_t tid = BufferForThisThread().tid;
  const std::lock_guard<std::mutex> lock(marker_mutex_);
  markers_.push_back({NowTicks(), tid, label});
}

AccumSnapshot TraceSession::Snapshot() const {
  AccumSnapshot snapshot{};
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  for (const auto& buffer : buffers_) {
    for (std::size_t c = 0; c < kNumCategories; ++c) {
      snapshot[c].count +=
          buffer->accum[c].count.load(std::memory_order_relaxed);
      snapshot[c].ticks +=
          buffer->accum[c].ticks.load(std::memory_order_relaxed);
      snapshot[c].value +=
          buffer->accum[c].value.load(std::memory_order_relaxed);
    }
  }
  return snapshot;
}

AccumSnapshot SnapshotDelta(const AccumSnapshot& before,
                            const AccumSnapshot& after) {
  AccumSnapshot delta{};
  for (std::size_t c = 0; c < kNumCategories; ++c) {
    delta[c].count = after[c].count - before[c].count;
    delta[c].ticks = after[c].ticks - before[c].ticks;
    delta[c].value = after[c].value - before[c].value;
  }
  return delta;
}

std::uint64_t TraceSession::DroppedEvents() const {
  std::uint64_t dropped = 0;
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  for (const auto& buffer : buffers_) {
    dropped += buffer->ring.Dropped();
  }
  return dropped;
}

std::string TraceSession::SummaryText() const {
  const AccumSnapshot snapshot = Snapshot();
  std::string out =
      "category                 count        total         mean        value\n";
  for (std::size_t c = 0; c < kNumCategories; ++c) {
    const CategoryTotals& totals = snapshot[c];
    if (totals.count == 0) {
      continue;
    }
    const auto category = static_cast<Category>(c);
    const double total_ns = DurationNs(totals.ticks);
    const double mean_ns =
        total_ns / static_cast<double>(totals.count);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "%-22s %8" PRIu64 " %12s %12s %12" PRIu64 "\n",
                  CategoryName(category), totals.count,
                  IsCounterCategory(category) ? "-"
                                              : FormatNs(total_ns).c_str(),
                  IsCounterCategory(category) ? "-"
                                              : FormatNs(mean_ns).c_str(),
                  totals.value);
    out += line;
  }
  const std::uint64_t dropped = DroppedEvents();
  if (dropped > 0) {
    out += "(ring overflow: " + std::to_string(dropped) +
           " oldest events not in the exported trace; totals above are "
           "exact)\n";
  }
  return out;
}

std::string TraceSession::ToChromeJson() const {
  std::string out;
  out.reserve(std::size_t{1} << 16);
  out += "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n";
  bool first = true;
  const auto append_event = [&](const std::string& body) {
    if (!first) {
      out += ",\n";
    }
    first = false;
    out += "    " + body;
  };

  char buf[256];
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  for (const auto& buffer : buffers_) {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, "
                  "\"tid\": %u, \"args\": {\"name\": \"thread-%u\"}}",
                  buffer->tid, buffer->tid);
    append_event(buf);
    for (const Event& event : buffer->ring.Snapshot()) {
      const double ts_us = calibration_.SinceEpochNs(event.begin_ticks) / 1e3;
      if (event.kind == EventKind::kScope) {
        const double dur_us =
            calibration_.DurationNs(event.end_ticks > event.begin_ticks
                                        ? event.end_ticks - event.begin_ticks
                                        : 0) /
            1e3;
        std::snprintf(buf, sizeof(buf),
                      "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                      "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 0, \"tid\": %u}",
                      CategoryName(event.category),
                      CategoryGroup(event.category), ts_us, dur_us,
                      buffer->tid);
      } else {
        std::snprintf(buf, sizeof(buf),
                      "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"C\", "
                      "\"ts\": %.3f, \"pid\": 0, \"tid\": %u, "
                      "\"args\": {\"value\": %" PRIu64 "}}",
                      CategoryName(event.category),
                      CategoryGroup(event.category), ts_us, buffer->tid,
                      event.value);
      }
      append_event(buf);
    }
  }
  {
    const std::lock_guard<std::mutex> marker_lock(marker_mutex_);
    for (const MarkerEvent& marker : markers_) {
      std::string body = "{\"name\": \"";
      AppendJsonEscaped(body, marker.label);
      std::snprintf(buf, sizeof(buf),
                    "\", \"cat\": \"marker\", \"ph\": \"i\", \"ts\": %.3f, "
                    "\"pid\": 0, \"tid\": %u, \"s\": \"g\"}",
                    calibration_.SinceEpochNs(marker.ticks) / 1e3,
                    marker.tid);
      body += buf;
      append_event(body);
    }
  }
  out += "\n  ]\n}\n";
  return out;
}

bool TraceSession::WriteChromeJson(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  const std::string json = ToChromeJson();
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), file);
  const bool ok = std::fclose(file) == 0 && written == json.size();
  return ok;
}

}  // namespace dsched::obs
