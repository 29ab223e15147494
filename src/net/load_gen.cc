#include "src/net/load_gen.h"

#include <algorithm>
#include <cmath>

#include "src/guest/syscall.h"
#include "src/obs/trace_scope.h"

namespace cki {

// --- ArrivalProcess ---------------------------------------------------------

ArrivalConfig ArrivalConfig::DiurnalBurst(uint64_t seed, double base_rate_per_sec) {
  ArrivalConfig c;
  c.seed = seed;
  c.base_rate_per_sec = base_rate_per_sec;
  // Two-peak day: quiet night, morning ramp, lunch dip, evening peak.
  c.diurnal = {0.2, 0.15, 0.3, 0.7, 1.0, 0.8, 0.6, 0.9, 1.2, 1.0, 0.5, 0.3};
  // Mostly calm with a short 4x flash crowd each cycle.
  c.burst = {1.0, 1.0, 1.0, 1.0, 4.0, 1.0, 1.0, 1.0};
  return c;
}

namespace {

// Multiplier of the repeating `table` at time `now` (1.0 when empty).
double TableAt(const std::vector<double>& table, SimNanos period_ns, SimNanos now) {
  if (table.empty() || period_ns == 0) {
    return 1.0;
  }
  SimNanos slot_ns = period_ns / table.size();
  if (slot_ns == 0) {
    slot_ns = 1;
  }
  return table[(now / slot_ns) % table.size()];
}

double TableMax(const std::vector<double>& table) {
  double m = 1.0;
  for (double v : table) {
    m = std::max(m, v);
  }
  return m;
}

}  // namespace

ArrivalProcess::ArrivalProcess(const ArrivalConfig& config)
    : config_(config), rng_(config.seed) {
  if (config_.base_rate_per_sec <= 0) {
    config_.base_rate_per_sec = 1;
  }
  peak_rate_per_sec_ =
      config_.base_rate_per_sec * TableMax(config_.diurnal) * TableMax(config_.burst);
}

double ArrivalProcess::MultiplierAt(SimNanos now) const {
  return TableAt(config_.diurnal, config_.diurnal_period_ns, now) *
         TableAt(config_.burst, config_.burst_period_ns, now);
}

SimNanos ArrivalProcess::NextArrival() {
  if (has_pending_) {
    has_pending_ = false;
    minted_++;
    return pending_;
  }
  // Thinning: candidates arrive as a homogeneous Poisson stream at the
  // peak rate; each survives with probability rate(t)/peak. Rejected
  // candidates still advance the candidate clock, so the surviving
  // sequence is exactly the non-homogeneous process.
  const double peak_per_ns = peak_rate_per_sec_ * 1e-9;
  for (;;) {
    double u = rng_.NextUnit();
    // Exponential inter-arrival at the peak rate, >= 1 ns so time moves.
    double gap_ns = -std::log(1.0 - u) / peak_per_ns;
    clock_ns_ += std::max<SimNanos>(1, static_cast<SimNanos>(gap_ns));
    if (rng_.NextUnit() * peak_rate_per_sec_ < RateAt(clock_ns_)) {
      minted_++;
      return clock_ns_;
    }
  }
}

size_t ArrivalProcess::DrainUntil(SimNanos until, std::vector<SimNanos>* out) {
  size_t n = 0;
  for (;;) {
    SimNanos t = NextArrival();
    if (t >= until) {
      // Push the overshooting arrival back for the next window.
      pending_ = t;
      has_pending_ = true;
      minted_--;
      return n;
    }
    out->push_back(t);
    n++;
  }
}

// --- LoadGenerator ----------------------------------------------------------

LoadGenerator::LoadGenerator(SimContext& ctx, VSwitch& sw, std::string name, uint64_t trace_seed)
    : ctx_(ctx),
      sw_(sw),
      name_(std::move(name)),
      port_(sw_.AttachPort(*this, name_)),
      trace_seed_(trace_seed) {}

int64_t LoadGenerator::Connect(int dst_port, uint16_t service) {
  int flow = sw_.AllocFlow();
  connect_results_[flow] = kEAGAIN;
  sw_.Send(Packet{.src = port_, .dst = dst_port, .flow = flow, .service = service,
                  .kind = PacketKind::kSyn});
  int64_t result = connect_results_[flow];
  connect_results_.erase(flow);
  if (result == kEAGAIN) {
    result = kECONNREFUSED;
  }
  if (result < 0) {
    return result;
  }
  flows_[flow] = FlowState{.peer = dst_port};
  return flow;
}

int64_t LoadGenerator::ConnectResil(int dst_port, uint16_t service, const ResilConfig& cfg,
                                    RetryBudget& budget) {
  int64_t r = Connect(dst_port, service);
  for (uint32_t attempt = 1; r < 0 && IsRetryableErrno(r) && attempt < cfg.max_attempts;
       ++attempt) {
    if (!budget.TryAcquire()) {
      break;  // bucket dry: no storm, surface the transient errno
    }
    // Backoff is simulated time, not wall time: the wait is charged to the
    // shared clock so the retry schedule replays bit-identically.
    ctx_.ChargeWork(BackoffNs(cfg, attempt));
    connect_retries_++;
    r = Connect(dst_port, service);
  }
  if (r >= 0) {
    budget.OnSuccess();
  }
  return r;
}

void LoadGenerator::SendRequests(int flow, int count, uint64_t bytes) {
  auto it = flows_.find(flow);
  if (it == flows_.end() || count <= 0) {
    return;
  }
  TraceScope obs_scope(ctx_, Phase::kLoadgenSubmit);
  // Client-side batch assembly (request formatting, socket writes).
  ctx_.ChargeWork(ctx_.cost().virtio_host_service);
  for (int i = 0; i < count; ++i) {
    TraceContext tc = MakeTraceContext(trace_seed_, ++trace_sequence_);
    outstanding_traces_.insert(tc.trace_id);
    last_request_trace_ = tc.trace_id;
    ctx_.obs().RecordFlowPoint(ctx_.clock().now(), TraceRecordKind::kFlowStart, tc.trace_id);
    sw_.Send(Packet{.src = port_, .dst = it->second.peer, .flow = flow,
                    .kind = PacketKind::kData, .bytes = bytes,
                    .deadline_ns = DeadlineFor(ctx_.clock().now()), .trace_id = tc.trace_id,
                    .span_id = tc.span_id});
    requests_sent_++;
  }
}

uint64_t LoadGenerator::PumpOpenLoop(int flow, ArrivalProcess& arrivals, SimNanos until,
                                     uint64_t bytes) {
  auto it = flows_.find(flow);
  if (it == flows_.end()) {
    return 0;
  }
  TraceScope obs_scope(ctx_, Phase::kLoadgenOpenloop);
  uint64_t sent = 0;
  std::vector<SimNanos> times;
  arrivals.DrainUntil(until, &times);
  for (SimNanos t : times) {
    (void)t;  // open loop: the schedule, not the response stream, paces us
    TraceContext tc = MakeTraceContext(trace_seed_, ++trace_sequence_);
    outstanding_traces_.insert(tc.trace_id);
    last_request_trace_ = tc.trace_id;
    ctx_.obs().RecordFlowPoint(ctx_.clock().now(), TraceRecordKind::kFlowStart, tc.trace_id);
    sw_.Send(Packet{.src = port_, .dst = it->second.peer, .flow = flow,
                    .kind = PacketKind::kData, .bytes = bytes,
                    .deadline_ns = DeadlineFor(ctx_.clock().now()), .trace_id = tc.trace_id,
                    .span_id = tc.span_id});
    requests_sent_++;
    sent++;
  }
  return sent;
}

uint64_t LoadGenerator::TakeResponses(int flow) {
  auto it = flows_.find(flow);
  if (it == flows_.end()) {
    return 0;
  }
  uint64_t n = it->second.responses;
  it->second.responses = 0;
  return n;
}

uint64_t LoadGenerator::response_bytes(int flow) const {
  auto it = flows_.find(flow);
  return it == flows_.end() ? 0 : it->second.response_bytes;
}

bool LoadGenerator::DeliverFrame(const Packet& p) {
  switch (p.kind) {
    case PacketKind::kSynAck: {
      auto it = connect_results_.find(p.flow);
      if (it != connect_results_.end()) {
        it->second = 0;
      }
      return true;
    }
    case PacketKind::kRst: {
      auto it = connect_results_.find(p.flow);
      if (it != connect_results_.end()) {
        it->second = p.service == kRstBacklogFull ? kEBUSY : kECONNREFUSED;
      }
      return true;
    }
    case PacketKind::kData: {
      auto it = flows_.find(p.flow);
      if (it == flows_.end()) {
        return true;
      }
      it->second.responses++;
      it->second.response_bytes += p.bytes;
      total_responses_++;
      // The response closes the request's causal chain iff it still
      // carries the identity this generator minted.
      if (p.trace_id != 0) {
        last_response_trace_ = p.trace_id;
        ctx_.obs().RecordFlowPoint(ctx_.clock().now(), TraceRecordKind::kFlowEnd, p.trace_id);
        if (outstanding_traces_.erase(p.trace_id) != 0) {
          matched_responses_++;
        }
      }
      return true;
    }
    case PacketKind::kSyn:
    case PacketKind::kFin:
    case PacketKind::kCount:
      break;
  }
  return true;  // the client's user-space buffers never push back
}

}  // namespace cki
