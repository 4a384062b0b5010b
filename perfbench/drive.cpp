#include "drive.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <exception>
#include <future>
#include <map>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "datalog/database.hpp"
#include "datalog/maintenance.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/category.hpp"
#include "service/engine_host.hpp"
#include "service/session.hpp"

namespace perfbench {

using dsched::datalog::Database;
using dsched::datalog::Tuple;
using dsched::datalog::UpdateRequest;
using dsched::datalog::Value;
namespace net = dsched::net;
namespace obs = dsched::obs;
namespace service = dsched::service;

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// In-flight requests still unanswered this long after the timed window
/// count as failed.
constexpr double kDrainTimeoutS = 30.0;
/// Messages of each kind kept for codec timing.
constexpr std::size_t kFrameLogLimit = 2048;

double ProcessCpuS() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

void SleepUntil(double t) {
  const double wait = t - NowS();
  if (wait > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
}

Tuple ToTuple(const std::vector<std::int64_t>& values) {
  Tuple tuple;
  tuple.reserve(values.size());
  for (const std::int64_t v : values) {
    tuple.push_back(Value::Int(v));
  }
  return tuple;
}

net::WireTuple ToWire(const std::vector<std::int64_t>& values) {
  net::WireTuple tuple;
  tuple.reserve(values.size());
  for (const std::int64_t v : values) {
    tuple.push_back(net::WireValue::Int(v));
  }
  return tuple;
}

using Rows = std::vector<std::vector<std::int64_t>>;

/// Resolves predicate names to ids once, against a pinned snapshot (ids are
/// stable across program versions), so request building never reads the
/// live program while a rule change swaps it.
class RequestBuilder {
 public:
  explicit RequestBuilder(const Database& db) : snapshot_(db.Snapshot()) {}

  UpdateRequest Build(const std::vector<Op>& ops) {
    UpdateRequest request;
    for (const Op& op : ops) {
      auto& side = op.is_delete ? request.deletions : request.insertions;
      side.emplace_back(Id(op.predicate), ToTuple(op.values));
    }
    return request;
  }

 private:
  std::uint32_t Id(const std::string& name) {
    const auto it = ids_.find(name);
    if (it != ids_.end()) {
      return it->second;
    }
    const std::uint32_t id = snapshot_->program.PredicateId(name);
    ids_.emplace(name, id);
    return id;
  }

  std::shared_ptr<const dsched::datalog::CompiledProgram> snapshot_;
  std::map<std::string, std::uint32_t> ids_;
};

// --- the request loop --------------------------------------------------------

struct Completion {
  std::uint64_t tag = 0;
  bool ok = false;
  double done = 0.0;
};

/// One connection's transport, driven by RunLoop from a single thread.
class Channel {
 public:
  Channel() = default;
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;
  virtual ~Channel() = default;
  virtual bool Send(const Request& request, std::uint64_t tag) = 0;
  /// Next completion, waiting up to timeout_ms; false when none arrived.
  virtual bool Poll(Completion* out, int timeout_ms) = 0;
  [[nodiscard]] virtual bool Broken() const = 0;
};

class WireChannel final : public Channel {
 public:
  WireChannel(net::ServiceClient& client, std::uint64_t session_id,
              FrameLog* log)
      : client_(client), session_id_(session_id), log_(log) {}

  bool Send(const Request& request, std::uint64_t tag) override {
    try {
      switch (request.kind) {
        case ReqKind::kSubmit: {
          net::SubmitRequest m{tag, session_id_, {}};
          m.ops.reserve(request.ops.size());
          for (const Op& op : request.ops) {
            m.ops.push_back(
                net::WireOp{op.is_delete, op.predicate, ToWire(op.values)});
          }
          client_.SendSubmit(m);
          Log(&FrameLog::submits, m);
          break;
        }
        case ReqKind::kQuery: {
          const net::QueryRequest m{tag, session_id_, request.text};
          client_.SendQuery(m);
          Log(&FrameLog::queries, m);
          break;
        }
        case ReqKind::kAddRules: {
          const net::AddRulesRequest m{tag, session_id_, request.text};
          client_.SendAddRules(m);
          Log(&FrameLog::evolves, m);
          break;
        }
        case ReqKind::kRemoveRule:
          client_.SendRemoveRule(
              net::RemoveRuleRequest{tag, session_id_, request.text});
          break;
      }
    } catch (const std::exception&) {
      broken_ = true;
      return false;
    }
    return true;
  }

  bool Poll(Completion* out, int timeout_ms) override {
    net::ServiceClient::Response resp;
    const double start = NowS();
    try {
      if (!client_.ReadResponse(&resp, timeout_ms)) {
        // ReadResponse also returns false at once when the server closed
        // the connection; only a full-length wait is a timeout.
        if (timeout_ms >= 4 && (NowS() - start) * 1e3 < timeout_ms / 2.0) {
          broken_ = true;
        }
        return false;
      }
    } catch (const std::exception&) {
      broken_ = true;
      return false;
    }
    out->done = NowS();
    out->tag = resp.RequestId();
    out->ok = resp.opcode != net::Opcode::kError;
    if (resp.opcode == net::Opcode::kError && out->tag == 0) {
      broken_ = true;  // SHUTDOWN / IDLE_TIMEOUT: the connection is going
    }
    switch (resp.opcode) {
      case net::Opcode::kSubmitResult:
        Log(&FrameLog::submit_results, resp.submit_result);
        break;
      case net::Opcode::kQueryResult:
        Log(&FrameLog::query_results, resp.query_result);
        break;
      case net::Opcode::kRulesChanged:
        Log(&FrameLog::rules_changed, resp.rules_changed);
        break;
      default:
        break;
    }
    return true;
  }

  [[nodiscard]] bool Broken() const override { return broken_; }

 private:
  template <typename Vec, typename Msg>
  void Log(Vec FrameLog::*member, const Msg& msg) {
    if (log_ != nullptr && (log_->*member).size() < kFrameLogLimit) {
      (log_->*member).push_back(msg);
    }
  }

  net::ServiceClient& client_;
  std::uint64_t session_id_;
  FrameLog* log_;
  bool broken_ = false;
};

class SessionChannel final : public Channel {
 public:
  explicit SessionChannel(service::Session& session)
      : session_(session), builder_(session.Db()) {}

  bool Send(const Request& request, std::uint64_t tag) override {
    Pending pending;
    pending.tag = tag;
    try {
      switch (request.kind) {
        case ReqKind::kSubmit:
          pending.future = session_.Submit(builder_.Build(request.ops));
          break;
        case ReqKind::kQuery:
          // Session::Query is synchronous; it completes here.
          (void)session_.Query(request.text);
          pending.immediate = true;
          pending.done = NowS();
          break;
        case ReqKind::kAddRules:
          pending.future = session_.EvolveAddRules(request.text);
          break;
        case ReqKind::kRemoveRule:
          pending.future = session_.EvolveRemoveRule(request.text);
          break;
      }
    } catch (const std::exception&) {
      return false;
    }
    pending_.push_back(std::move(pending));
    return true;
  }

  bool Poll(Completion* out, int timeout_ms) override {
    if (pending_.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(timeout_ms));
      return false;
    }
    Pending& front = pending_.front();
    out->tag = front.tag;
    out->ok = true;
    if (front.immediate) {
      out->done = front.done;
    } else {
      if (front.future.wait_for(std::chrono::milliseconds(timeout_ms)) !=
          std::future_status::ready) {
        return false;
      }
      try {
        (void)front.future.get();
      } catch (const std::exception&) {
        out->ok = false;
      }
      out->done = NowS();
    }
    pending_.pop_front();
    return true;
  }

  [[nodiscard]] bool Broken() const override { return false; }

 private:
  struct Pending {
    std::uint64_t tag = 0;
    std::future<service::UpdateOutcome> future;
    bool immediate = false;
    double done = 0.0;
  };

  service::Session& session_;
  RequestBuilder builder_;
  std::deque<Pending> pending_;
};

/// Closed loop: keep `window` requests in flight, each timed from its
/// actual send.  Open loop: request i is due at t0 + i / rate and is timed
/// from when it was due, so a stall charges the requests queued behind it.
void RunLoop(Channel& channel, Stream& stream, const WorkloadSpec& spec,
             double t0, double offset, const PhaseConfig& config,
             LoopStats* st) {
  struct Inflight {
    ReqKind kind;
    double t_ref;
    bool in_phase;
  };
  const double phase_start = t0 + config.warmup_s;
  const double phase_end = phase_start + config.measure_s;
  const double deadline = phase_end + kDrainTimeoutS;
  const bool open = spec.rate_per_conn > 0.0;
  std::unordered_map<std::uint64_t, Inflight> inflight;
  std::uint64_t next_tag = 1;
  std::uint64_t index = 0;
  st->phase_start = phase_start;

  const auto send = [&](double t_ref, double now) {
    const Request request = stream.Next();
    const bool in_phase = t_ref >= phase_start;
    ++st->attempted;
    const std::uint64_t tag = next_tag++;
    if (open && in_phase) {
      st->late_ms.push_back((now - t_ref) * 1e3);
    }
    if (!channel.Send(request, tag)) {
      ++st->failed;
      return;
    }
    inflight.emplace(tag, Inflight{request.kind, t_ref, in_phase});
  };

  for (;;) {
    const double now = NowS();
    if (now > deadline || channel.Broken()) {
      st->failed += inflight.size();
      return;
    }
    Completion done;
    bool have = false;
    if (open) {
      const double due =
          t0 + (static_cast<double>(index) + offset) / spec.rate_per_conn;
      if (due < phase_end) {
        if (now >= due && inflight.size() < spec.window) {
          send(due, now);
          ++index;
          continue;
        }
        if (now < due && due - now < 0.002) {
          // poll(2) has millisecond resolution: take whatever is ready,
          // else sleep to the due time.
          have = !inflight.empty() && channel.Poll(&done, 0);
          if (!have) {
            SleepUntil(due);
            continue;
          }
        } else {
          // Wait 1 ms at a time.  On virtualised hosts a reply that lands
          // while the generator sleeps longer can be seen only at its next
          // timer, which the latency would then charge (README, "Host").
          have = channel.Poll(&done, 1);
        }
      } else {
        if (inflight.empty()) {
          return;
        }
        have = channel.Poll(&done, 100);
      }
    } else {
      if (now < phase_end && inflight.size() < spec.window) {
        send(now, now);
        continue;
      }
      if (inflight.empty()) {
        return;
      }
      have = channel.Poll(&done, 100);
    }
    if (!have) {
      continue;
    }
    const auto it = inflight.find(done.tag);
    if (it == inflight.end()) {
      continue;
    }
    if (!done.ok) {
      ++st->failed;
    } else if (it->second.in_phase) {
      const double ms = (done.done - it->second.t_ref) * 1e3;
      ++st->phase_requests;
      st->last_done = std::max(st->last_done, done.done);
      switch (it->second.kind) {
        case ReqKind::kSubmit:
          st->submit_ms.push_back(ms);
          ++st->phase_submits;
          break;
        case ReqKind::kQuery:
          st->query_ms.push_back(ms);
          break;
        case ReqKind::kAddRules:
        case ReqKind::kRemoveRule:
          st->evolve_ms.push_back(ms);
          break;
      }
    }
    inflight.erase(it);
  }
}

/// One thread per connection; CPU is sampled over the timed window.
LoopStats RunPhase(std::vector<std::unique_ptr<Channel>>& channels,
                   std::vector<std::unique_ptr<Stream>>& streams,
                   const WorkloadSpec& spec, const PhaseConfig& config) {
  std::vector<LoopStats> per(channels.size());
  const double t0 = NowS() + 0.02;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < channels.size(); ++c) {
    threads.emplace_back([&, c] {
      SleepUntil(t0);
      // Open-loop connections are staggered across one inter-arrival gap
      // so independent clients do not send in lockstep.
      const double offset =
          static_cast<double>(c) / static_cast<double>(channels.size());
      try {
        RunLoop(*channels[c], *streams[c], spec, t0, offset, config, &per[c]);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "wirebench: connection %zu: %s\n", c, e.what());
        ++per[c].failed;
      }
    });
  }
  SleepUntil(t0 + config.warmup_s);
  const double cpu0 = ProcessCpuS();
  for (std::thread& t : threads) {
    t.join();
  }
  LoopStats total;
  for (const LoopStats& s : per) {
    total.Merge(s);
  }
  total.cpu_s = ProcessCpuS() - cpu0;
  return total;
}

Rows ToRows(const std::vector<Tuple>& tuples) {
  Rows rows;
  rows.reserve(tuples.size());
  for (const Tuple& tuple : tuples) {
    std::vector<std::int64_t> row;
    row.reserve(tuple.size());
    for (const Value& v : tuple) {
      row.push_back(v.AsInt());
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

Rows ToRows(const std::vector<net::WireTuple>& tuples) {
  Rows rows;
  rows.reserve(tuples.size());
  for (const net::WireTuple& tuple : tuples) {
    std::vector<std::int64_t> row;
    row.reserve(tuple.size());
    for (const net::WireValue& v : tuple) {
      row.push_back(v.int_value);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Streams driving session `s`.
std::vector<const Stream*> StreamsOf(
    const WorkloadSpec& spec,
    const std::vector<std::unique_ptr<Stream>>& streams, std::size_t s) {
  std::vector<const Stream*> out;
  for (std::size_t c = 0; c < streams.size(); ++c) {
    if (spec.conn_session[c] == s) {
      out.push_back(streams[c].get());
    }
  }
  return out;
}

/// From-scratch evaluation of the session's final program over the base
/// facts its streams keep live.
std::unique_ptr<Database> FromScratch(const std::vector<const Stream*>& owners,
                                      double* materialize_s) {
  auto db = std::make_unique<Database>(owners.front()->ProgramText());
  for (const Stream* stream : owners) {
    for (const Op& op : stream->LiveFacts()) {
      db->Insert(op.predicate, ToTuple(op.values));
    }
  }
  const double t = NowS();
  db->Materialize();
  if (materialize_s != nullptr) {
    *materialize_s = NowS() - t;
  }
  return db;
}

service::SessionOptions OptionsOf(const SessionSpec& s) {
  service::SessionOptions opts;
  opts.maintenance_strategy = s.strategy;
  opts.pipeline_depth = s.pipeline_depth;
  return opts;
}

}  // namespace

void LoopStats::Merge(const LoopStats& other) {
  const auto append = [](std::vector<double>& to,
                         const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(submit_ms, other.submit_ms);
  append(query_ms, other.query_ms);
  append(evolve_ms, other.evolve_ms);
  append(late_ms, other.late_ms);
  attempted += other.attempted;
  failed += other.failed;
  phase_requests += other.phase_requests;
  phase_submits += other.phase_submits;
  phase_start = other.phase_start;
  last_done = std::max(last_done, other.last_done);
  cpu_s += other.cpu_s;
}

double LoopStats::UpdatesPerS() const {
  const double span = last_done - phase_start;
  return span > 0.0 ? static_cast<double>(phase_submits) / span : 0.0;
}

double CodecUsPerFrame(const FrameLog& log) {
  std::size_t frames = 0;
  std::size_t sink = 0;
  const auto round = [&](auto encode, auto decode, const auto& messages) {
    for (const auto& m : messages) {
      const std::string bytes = encode(m);
      net::Frame frame;
      if (net::ExtractFrame(bytes, &frame) == net::FrameStatus::kFrame) {
        std::decay_t<decltype(m)> back;
        sink += decode(frame.payload, &back) ? 1U : 0U;
      }
      ++frames;
    }
  };
  const double t = NowS();
  // Several passes so short logs still give a measurable interval.
  for (int pass = 0; pass < 8; ++pass) {
    round([](const auto& m) { return net::EncodeSubmit(m); },
          [](auto p, auto* o) { return net::DecodeSubmit(p, o); }, log.submits);
    round([](const auto& m) { return net::EncodeQuery(m); },
          [](auto p, auto* o) { return net::DecodeQuery(p, o); }, log.queries);
    round([](const auto& m) { return net::EncodeAddRules(m); },
          [](auto p, auto* o) { return net::DecodeAddRules(p, o); },
          log.evolves);
    round([](const auto& m) { return net::EncodeSubmitResult(m); },
          [](auto p, auto* o) { return net::DecodeSubmitResult(p, o); },
          log.submit_results);
    round([](const auto& m) { return net::EncodeQueryResult(m); },
          [](auto p, auto* o) { return net::DecodeQueryResult(p, o); },
          log.query_results);
    round([](const auto& m) { return net::EncodeRulesChanged(m); },
          [](auto p, auto* o) { return net::DecodeRulesChanged(p, o); },
          log.rules_changed);
  }
  const double elapsed = NowS() - t;
  if (frames == 0 || sink == 0) {
    return 0.0;
  }
  return elapsed * 1e6 / static_cast<double>(frames);
}

// --- depth 1: the wire ---------------------------------------------------------

WireBench::WireBench(WorkloadSpec spec, std::size_t workers)
    : spec_(std::move(spec)), workers_(workers) {}

WireBench::~WireBench() { Stop(); }

double WireBench::Setup() {
  streams_.clear();
  for (std::size_t c = 0; c < spec_.Connections(); ++c) {
    streams_.push_back(spec_.MakeStream(c));
  }
  std::vector<std::vector<Op>> initial;
  for (const auto& stream : streams_) {
    initial.push_back(stream->InitialFacts());
  }
  const double t = NowS();
  host_ = std::make_unique<service::EngineHost>(
      service::HostOptions{.workers = workers_});
  server_ = std::make_unique<net::ServiceServer>(*host_);
  server_->Start();
  session_ids_.assign(spec_.sessions.size(), 0);
  std::uint64_t request_id = 1;
  for (std::size_t c = 0; c < spec_.Connections(); ++c) {
    auto client = std::make_unique<net::ServiceClient>();
    client->Connect("127.0.0.1", server_->Port());
    const std::size_t s = spec_.conn_session[c];
    if (session_ids_[s] == 0) {
      const SessionSpec& ss = spec_.sessions[s];
      net::OpenSessionRequest open;
      open.request_id = request_id++;
      open.program = ss.program;
      open.strategy = ss.strategy;
      open.pipeline_depth = ss.pipeline_depth;
      session_ids_[s] = client->OpenSessionSync(open);
    }
    net::SubmitRequest load{request_id++, session_ids_[s], {}};
    for (const Op& op : initial[c]) {
      load.ops.push_back(
          net::WireOp{op.is_delete, op.predicate, ToWire(op.values)});
    }
    (void)client->SubmitSync(load);
    clients_.push_back(std::move(client));
  }
  return NowS() - t;
}

LoopStats WireBench::Run(const PhaseConfig& config, FrameLog* log) {
  std::vector<std::unique_ptr<Channel>> channels;
  for (std::size_t c = 0; c < clients_.size(); ++c) {
    channels.push_back(std::make_unique<WireChannel>(
        *clients_[c], session_ids_[spec_.conn_session[c]],
        c == 0 ? log : nullptr));
  }
  return RunPhase(channels, streams_, spec_, config);
}

bool WireBench::Check(bool perturb, std::string* why, LoopStats* counts) {
  net::ServiceClient& client = *clients_.front();
  bool ok = true;
  bool perturbed = false;
  std::uint64_t request_id = 1u << 30;
  for (std::size_t s = 0; s < spec_.sessions.size(); ++s) {
    const std::vector<const Stream*> owners = StreamsOf(spec_, streams_, s);
    const std::unique_ptr<Database> ref = FromScratch(owners, nullptr);
    const auto& names = ref->GetProgram().predicate_names;
    for (const std::string& pred : owners.front()->OraclePredicates()) {
      Rows expected;
      if (std::find(names.begin(), names.end(), pred) != names.end()) {
        expected = ToRows(ref->Query(pred));
      }
      ++counts->attempted;
      Rows got;
      try {
        got = ToRows(
            client.QuerySync(net::QueryRequest{request_id++, session_ids_[s],
                                               pred})
                .rows);
      } catch (const std::exception& e) {
        ++counts->failed;
        ok = false;
        *why = "session " + std::to_string(s) + " QUERY " + pred +
               " failed: " + e.what();
        continue;
      }
      if (perturb && !perturbed && !got.empty()) {
        got.pop_back();
        perturbed = true;
      }
      std::sort(expected.begin(), expected.end());
      std::sort(got.begin(), got.end());
      if (got != expected) {
        ok = false;
        *why = "session " + std::to_string(s) + " predicate " + pred +
               ": read back " + std::to_string(got.size()) +
               " rows, from-scratch evaluation has " +
               std::to_string(expected.size());
      }
    }
  }
  return ok;
}

dsched::obs::MetricsRegistry& WireBench::Metrics() { return host_->Metrics(); }

void WireBench::Stop() {
  clients_.clear();
  if (server_ != nullptr) {
    server_->Stop();
    server_.reset();
  }
  host_.reset();
}

// --- depth 2: in-process sessions ---------------------------------------------

SessionBench::SessionBench(WorkloadSpec spec, std::size_t workers)
    : spec_(std::move(spec)), workers_(workers) {}

SessionBench::~SessionBench() {
  Close();
  sessions_.clear();
  host_.reset();
}

void SessionBench::Close() {
  for (const auto& session : sessions_) {
    session->Close();
  }
}

void SessionBench::Setup() {
  host_ = std::make_unique<service::EngineHost>(
      service::HostOptions{.workers = workers_});
  streams_.clear();
  for (std::size_t c = 0; c < spec_.Connections(); ++c) {
    streams_.push_back(spec_.MakeStream(c));
  }
  // Bootstrapped like the wire's sessions (empty Materialize, then one
  // bulk-load batch per stream), so the stores the depths maintain match.
  for (std::size_t s = 0; s < spec_.sessions.size(); ++s) {
    auto session = host_->OpenSession(spec_.sessions[s].program,
                                      OptionsOf(spec_.sessions[s]));
    session->Materialize();
    RequestBuilder builder(session->Db());
    for (const Stream* stream : StreamsOf(spec_, streams_, s)) {
      (void)session->Submit(builder.Build(stream->InitialFacts())).get();
    }
    sessions_.push_back(std::move(session));
  }
}

LoopStats SessionBench::Run(const PhaseConfig& config) {
  std::vector<std::unique_ptr<Channel>> channels;
  for (std::size_t c = 0; c < spec_.Connections(); ++c) {
    channels.push_back(
        std::make_unique<SessionChannel>(*sessions_[spec_.conn_session[c]]));
  }
  return RunPhase(channels, streams_, spec_, config);
}

dsched::obs::MetricsRegistry& SessionBench::Metrics() {
  return host_->Metrics();
}

// --- depth 3: the database, one request at a time ----------------------------

double ReplayStats::TraceMs(obs::Category category) const {
  return static_cast<double>(trace[static_cast<std::size_t>(category)].ticks) *
         trace_ns_per_tick * 1e-6;
}

std::uint64_t ReplayStats::TraceCount(obs::Category category) const {
  return trace[static_cast<std::size_t>(category)].count;
}

std::uint64_t ReplayStats::TraceValue(obs::Category category) const {
  return trace[static_cast<std::size_t>(category)].value;
}

ReplayStats ReplayDatabase(const WorkloadSpec& spec, std::size_t workers,
                           const PhaseConfig& config, bool traced) {
  ReplayStats out;
  // Declared before the host: pool workers may close a scope opened while
  // the session was installed as late as the host's destructor.
  obs::TraceSession session;
  service::EngineHost host(service::HostOptions{.workers = workers});
  std::vector<std::unique_ptr<Stream>> streams;
  for (std::size_t c = 0; c < spec.Connections(); ++c) {
    streams.push_back(spec.MakeStream(c));
  }
  std::vector<std::unique_ptr<Database>> dbs;
  std::vector<std::unique_ptr<RequestBuilder>> builders;
  std::vector<Database::ParallelOptions> options;
  for (std::size_t s = 0; s < spec.sessions.size(); ++s) {
    const std::vector<const Stream*> owners = StreamsOf(spec, streams, s);
    // From-scratch evaluation of the set-up facts, timed on its own.
    auto scratch = std::make_unique<Database>(spec.sessions[s].program);
    for (const Stream* stream : owners) {
      for (const Op& op : stream->InitialFacts()) {
        scratch->Insert(op.predicate, ToTuple(op.values));
      }
    }
    const double t = NowS();
    scratch->Materialize();
    out.materialize_s += NowS() - t;
    scratch.reset();

    // The replayed store is bootstrapped like the wire's sessions.
    auto db = std::make_unique<Database>(spec.sessions[s].program);
    db->Materialize();
    Database::ParallelOptions opts;
    opts.router = &host.Router();
    opts.strategy =
        dsched::datalog::ParseMaintenanceStrategy(spec.sessions[s].strategy);
    auto builder = std::make_unique<RequestBuilder>(*db);
    for (const Stream* stream : owners) {
      (void)db->ApplyRequestParallel(builder->Build(stream->InitialFacts()),
                                     opts);
    }
    options.push_back(opts);
    builders.push_back(std::move(builder));
    dbs.push_back(std::move(db));
  }

  const auto store_counters = [&dbs]() {
    obs::MetricsRegistry registry;
    for (std::size_t s = 0; s < dbs.size(); ++s) {
      dbs[s]->Store().ExportMetrics(registry, "s" + std::to_string(s) + ".");
    }
    std::map<std::string, std::uint64_t> sums;
    for (const auto& m : registry.Snapshot()) {
      const std::string key = m.name.substr(m.name.find('.') + 1);
      sums[key] += m.value;
    }
    return sums;
  };

  std::size_t turn = 0;
  const auto step = [&](bool record) {
    const std::size_t c = turn++ % streams.size();
    const std::size_t s = spec.conn_session[c];
    Database& db = *dbs[s];
    const Request request = streams[c]->Next();
    switch (request.kind) {
      case ReqKind::kSubmit: {
        const UpdateRequest update = builders[s]->Build(request.ops);
        const double t = NowS();
        const auto result = db.ApplyRequestParallel(update, options[s]);
        const double dt = NowS() - t;
        if (!record) {
          break;
        }
        out.apply_ms.push_back(dt * 1e3);
        out.apply_s += dt;
        ++out.updates;
        out.maint_ops += result.update.total_maint_ops;
        for (const auto& comp : result.update.components) {
          out.overdeleted += comp.tuples_overdeleted;
          out.deleted += comp.tuples_deleted;
        }
        auto& run = out.run;
        run.executed += result.run.executed;
        run.wall_seconds += result.run.wall_seconds;
        run.sched_wall_seconds += result.run.sched_wall_seconds;
        run.dispatch_wall_seconds += result.run.dispatch_wall_seconds;
        run.idle_wall_seconds += result.run.idle_wall_seconds;
        run.dispatched += result.run.dispatched;
        run.dispatch_batches += result.run.dispatch_batches;
        run.mem_peak_bytes =
            std::max(run.mem_peak_bytes, result.run.mem_peak_bytes);
        break;
      }
      case ReqKind::kQuery:
        (void)db.Query(request.text);
        break;
      case ReqKind::kAddRules:
        (void)db.EvolveAddRules(request.text);
        out.evolves += record ? 1 : 0;
        break;
      case ReqKind::kRemoveRule:
        (void)db.EvolveRemoveRule(request.text);
        out.evolves += record ? 1 : 0;
        break;
    }
  };

  const double warm_end = NowS() + config.warmup_s;
  while (NowS() < warm_end) {
    step(false);
  }
  const auto before = store_counters();
  // Cascades on a shared router leave RunStats' pool fields at zero; the
  // pool's own counters cover them (nothing else runs on this host).
  const auto pool_before = host.Router().PoolStats();
  if (traced) {
    session.Install();
  }
  const double end = NowS() + config.measure_s;
  // Whole rounds, so every stream contributes equally.
  while ((NowS() < end || turn % streams.size() != 0) &&
         (config.max_updates == 0 || out.updates < config.max_updates)) {
    step(true);
  }
  session.Uninstall();
  const auto pool_after = host.Router().PoolStats();
  out.run.pool_steals = pool_after.steals - pool_before.steals;
  out.run.pool_sleeps = pool_after.sleeps - pool_before.sleeps;
  out.run.pool_wakeups = pool_after.wakeups - pool_before.wakeups;
  out.trace = session.Snapshot();
  out.trace_ns_per_tick = session.DurationNs(1'000'000) * 1e-6;
  const auto after = store_counters();
  const auto delta = [&](const std::string& key) {
    const auto a = after.find(key);
    const auto b = before.find(key);
    return (a == after.end() ? 0 : a->second) - (b == before.end() ? 0 : b->second);
  };
  out.index_rebuilds = delta("index_rebuilds");
  out.index_extend_rows = delta("index_extend_rows");
  out.publish_rows = delta("publish_rows");
  out.store_rows = delta("rows") + (before.count("rows") ? before.at("rows") : 0);
  // Row-weighted max/mean shard occupancy over every relation: 1.0 is a
  // perfectly even spread.
  double weighted = 0.0;
  for (const auto& db : dbs) {
    const auto& store = db->Store();
    out.store_bytes += store.MemoryBytes();
    for (std::size_t p = 0; p < store.NumRelations(); ++p) {
      const auto& rel = store.Of(static_cast<std::uint32_t>(p));
      std::uint64_t max_shard = 0;
      for (std::size_t sh = 0; sh < rel.NumShards(); ++sh) {
        max_shard = std::max<std::uint64_t>(max_shard, rel.ShardSize(sh));
      }
      weighted += static_cast<double>(max_shard * rel.NumShards());
    }
  }
  out.shard_skew = out.store_rows > 0
                       ? weighted / static_cast<double>(out.store_rows)
                       : 0.0;

  for (std::size_t s = 0; s < spec.sessions.size(); ++s) {
    double materialize_s = 0.0;
    (void)FromScratch(StreamsOf(spec, streams, s), &materialize_s);
    out.final_materialize_s += materialize_s;
  }
  out.final_materialize_s /= static_cast<double>(spec.sessions.size());
  return out;
}

}  // namespace perfbench
