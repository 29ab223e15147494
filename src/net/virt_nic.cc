#include "src/net/virt_nic.h"

#include <algorithm>

#include "src/fault/fault_injector.h"
#include "src/obs/trace_scope.h"
#include "src/snap/snap_stream.h"

namespace cki {

VirtNic::VirtNic(ContainerEngine& engine, VSwitch& sw, std::string name, NicConfig config)
    : engine_(engine),
      sw_(sw),
      ctx_(engine.machine().ctx()),
      name_(std::move(name)),
      config_(config),
      port_(sw_.AttachPort(*this, name_)) {
  if (config_.tx_batch < 1) {
    config_.tx_batch = 1;
  }
  // Unplug automatically when the owning container's fault domain dies.
  kill_hook_token_ =
      engine_.machine().faults().AddKillHook(engine_.id(), [this] { Detach(); });
}

VirtNic::~VirtNic() { engine_.machine().faults().RemoveKillHook(kill_hook_token_); }

void VirtNic::Detach() {
  if (detached_) {
    return;
  }
  detached_ = true;
  sw_.DetachPort(port_);
  tx_ring_.clear();
  flows_.clear();
  listeners_.clear();
  connect_results_.clear();
  rx_buffered_ = 0;
  irq_pending_ = false;
}

// --- TX path ---------------------------------------------------------------

uint64_t VirtNic::Transmit(int conn, uint64_t bytes) {
  if (detached_) {
    return 0;
  }
  auto it = flows_.find(conn);
  if (it == flows_.end()) {
    return 0;
  }
  // Frontend: fill the descriptor, plus the MMIO-register extra of designs
  // that kept an emulated virtio frontend.
  ctx_.ChargeWork(ctx_.cost().virtio_guest_service);
  ctx_.ChargeWork(engine_.VirtioEmulationExtra());
  it->second.tx_flow_bytes += bytes;
  stats_.tx_packets++;
  stats_.tx_bytes += bytes;
  // Stamp the guest's ambient request trace onto the frame, with a fresh
  // span id derived from (port, tx sequence) — deterministic, no clock.
  TraceContext tc = engine_.kernel().net_trace();
  tx_ring_.push_back(Packet{.src = port_,
                            .dst = it->second.peer,
                            .flow = conn,
                            .kind = PacketKind::kData,
                            .bytes = bytes,
                            .trace_id = tc.trace_id,
                            .span_id = DeriveSpanId(
                                tc, (static_cast<uint64_t>(port_) << 32) ^ stats_.tx_packets)});
  if (static_cast<int>(tx_ring_.size()) >= config_.tx_batch) {
    Kick();
  }
  return bytes;
}

void VirtNic::Kick() {
  TraceScope obs_scope(ctx_, Phase::kNicKick);
  ctx_.Charge(engine_.KickCost(), PathEvent::kVirtioKick);
  // Backend processes the whole available queue per notification.
  ctx_.ChargeWork(ctx_.cost().virtio_host_service);
  stats_.kicks++;
  std::deque<Packet> out;
  out.swap(tx_ring_);  // delivery can re-enter this NIC (e.g. SYN-ACK back)
  for (const Packet& p : out) {
    sw_.Send(p);
  }
}

void VirtNic::Flush() {
  if (tx_ring_.empty()) {
    return;
  }
  TraceScope obs_scope(ctx_, Phase::kNicFlush);
  Kick();
}

void VirtNic::set_tx_batch(int tx_batch) {
  config_.tx_batch = tx_batch < 1 ? 1 : tx_batch;
  if (static_cast<int>(tx_ring_.size()) >= config_.tx_batch) {
    Kick();
  }
}

// --- RX path ---------------------------------------------------------------

uint64_t VirtNic::Receive(int conn, uint64_t max_bytes) {
  auto it = flows_.find(conn);
  if (it == flows_.end() || it->second.rx.empty()) {
    return 0;
  }
  RxFrame frame = it->second.rx.front();
  it->second.rx.pop_front();
  rx_buffered_--;
  ctx_.ChargeWork(ctx_.cost().virtio_guest_service);
  // The guest adopts the frame's causal identity: every syscall and TX
  // from here on belongs to this request, until the next receive.
  if (frame.trace.active()) {
    engine_.kernel().set_net_trace(frame.trace);
    ctx_.obs().RecordFlowPoint(ctx_.clock().now(), TraceRecordKind::kFlowStep,
                               frame.trace.trace_id);
  }
  // The freed descriptor may let switch-queued frames in.
  sw_.DrainPort(port_);
  AckIrqIfDrained();
  return std::min(frame.bytes, max_bytes);
}

bool VirtNic::HasPending() const {
  for (const auto& [flow, state] : flows_) {
    (void)flow;
    if (!state.rx.empty()) {
      return true;
    }
  }
  for (const auto& [service, listener] : listeners_) {
    (void)service;
    if (!listener.pending.empty()) {
      return true;
    }
  }
  return false;
}

void VirtNic::RaiseIrq() {
  if (irq_pending_) {
    stats_.coalesced_frames++;
    return;
  }
  irq_pending_ = true;
  stats_.interrupts++;
  TraceScope obs_scope(ctx_, Phase::kNicIrq);
  ctx_.Charge(engine_.DeviceInterruptCost(), PathEvent::kVirqInject);
}

void VirtNic::AckIrqIfDrained() {
  if (config_.irq_per_batch || !irq_pending_ || rx_buffered_ > 0) {
    return;
  }
  for (const auto& [service, listener] : listeners_) {
    (void)service;
    if (!listener.pending.empty()) {
      return;  // accept readiness keeps the IRQ asserted
    }
  }
  irq_pending_ = false;
  stats_.irq_acks++;
  // EOI / queue-unmask write re-arming the device.
  ctx_.ChargeWork(engine_.InterruptAckCost());
}

void VirtNic::CompleteBatch() {
  stats_.interrupts++;
  TraceScope obs_scope(ctx_, Phase::kNicIrq);
  ctx_.Charge(engine_.DeviceInterruptCost(), PathEvent::kVirqInject);
}

// --- connection layer ------------------------------------------------------

int64_t VirtNic::Listen(uint16_t service, int backlog) {
  if (listeners_.count(service) != 0) {
    return kEADDRINUSE;
  }
  listeners_[service] = Listener{.backlog = backlog < 1 ? 1 : backlog};
  return service;
}

int64_t VirtNic::Accept(int64_t handle) {
  auto it = listeners_.find(static_cast<uint16_t>(handle));
  if (it == listeners_.end()) {
    return kEBADF;
  }
  if (it->second.pending.empty()) {
    return kEAGAIN;
  }
  int flow = it->second.pending.front();
  it->second.pending.pop_front();
  stats_.accepted_conns++;
  AckIrqIfDrained();
  return flow;
}

int64_t VirtNic::Connect(int dst_port, uint16_t service) {
  if (detached_) {
    return kECONNREFUSED;
  }
  int flow = sw_.AllocFlow();
  connect_results_[flow] = kEAGAIN;  // in progress
  flows_[flow] = FlowState{.peer = dst_port};
  ctx_.ChargeWork(ctx_.cost().virtio_guest_service);
  tx_ring_.push_back(
      Packet{.src = port_, .dst = dst_port, .flow = flow, .service = service,
             .kind = PacketKind::kSyn});
  // The SYN rides its own kick; the answer is back (frame delivery is
  // synchronous on the shared clock) by the time Flush returns.
  Flush();
  int64_t result = connect_results_[flow];
  connect_results_.erase(flow);
  if (result == kEAGAIN) {
    result = kECONNREFUSED;  // nothing answered (dead port)
  }
  if (result < 0) {
    flows_.erase(flow);
    return result;
  }
  return flow;
}

void VirtNic::CloseConn(int conn) {
  auto it = flows_.find(conn);
  if (it == flows_.end()) {
    return;
  }
  ctx_.ChargeWork(ctx_.cost().virtio_guest_service);
  sw_.Send(Packet{.src = port_, .dst = it->second.peer, .flow = conn, .kind = PacketKind::kFin});
  rx_buffered_ -= it->second.rx.size();
  flows_.erase(it);
  AckIrqIfDrained();
}

void VirtNic::OpenRawFlow(int flow, int peer_port) {
  flows_.emplace(flow, FlowState{.peer = peer_port});
}

// --- switch side -----------------------------------------------------------

bool VirtNic::DeliverFrame(const Packet& p) {
  switch (p.kind) {
    case PacketKind::kSyn: {
      auto it = listeners_.find(p.service);
      if (it == listeners_.end() ||
          static_cast<int>(it->second.pending.size()) >= it->second.backlog) {
        // The RST names its reason: backlog-full is a transient the client
        // may retry (kEBUSY); no-listener is structural (kECONNREFUSED).
        uint16_t reason = it == listeners_.end() ? kRstNoListener : kRstBacklogFull;
        stats_.refused_conns++;
        sw_.Send(Packet{.src = port_, .dst = p.src, .flow = p.flow, .service = reason,
                        .kind = PacketKind::kRst});
        return true;
      }
      flows_[p.flow] = FlowState{.peer = p.src};
      it->second.pending.push_back(p.flow);
      sw_.Send(Packet{.src = port_, .dst = p.src, .flow = p.flow, .kind = PacketKind::kSynAck});
      if (!config_.irq_per_batch) {
        RaiseIrq();  // accept readiness
      }
      return true;
    }
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
        stats_.rx_drops++;
        return true;  // consumed and dropped, like a closed TCP port
      }
      if (injector_ != nullptr && injector_->InjectVirtioCorruption()) {
        // A corrupted RX descriptor is a container-fatal device error.
        // Kill (not Raise): we are on the *sender's* stack here, and the
        // sender must keep running — only this NIC's owner dies.
        stats_.rx_drops++;
        engine_.machine().faults().Kill({FaultKind::kVirtioRingCorruption, engine_.id(),
                                         static_cast<uint64_t>(p.flow)});
        return true;  // `it` is dead: Detach() cleared flows_ under us
      }
      if (p.deadline_ns != 0) {
        // Admission control: a frame whose deadline cannot be met given
        // the queue already ahead of it is shed here, before it costs the
        // guest anything. Consumed-and-dropped (like an unknown flow), so
        // the switch does not requeue a doomed frame.
        SimNanos now = ctx_.clock().now();
        SimNanos eta = now + static_cast<SimNanos>(rx_buffered_) * config_.rx_est_service_ns;
        if (eta > static_cast<SimNanos>(p.deadline_ns)) {
          stats_.rx_sheds++;
          return true;
        }
      }
      if (rx_buffered_ >= config_.rx_ring) {
        // Overload is a pressure signal, not a kill: the switch queues.
        // The overrun also lands in the owner's SLO window as a gauge so
        // dashboards and shedding policies see backpressure (satellite of
        // DESIGN.md §13).
        stats_.overloads++;
        engine_.machine().faults().Note(
            {FaultKind::kNicOverload, engine_.id(), static_cast<uint64_t>(rx_buffered_)});
        ctx_.obs().SloIncOverload(engine_.id(), ctx_.clock().now());
        return false;  // ring full: the switch queues (or drops) the frame
      }
      it->second.rx.push_back(
          RxFrame{.bytes = p.bytes, .trace = TraceContext{p.trace_id, p.span_id}});
      it->second.rx_flow_bytes += p.bytes;
      rx_buffered_++;
      stats_.rx_packets++;
      stats_.rx_bytes += p.bytes;
      if (!config_.irq_per_batch) {
        RaiseIrq();
      }
      return true;
    }
    case PacketKind::kFin: {
      auto it = flows_.find(p.flow);
      if (it != flows_.end()) {
        rx_buffered_ -= it->second.rx.size();
        flows_.erase(it);
      }
      return true;
    }
    case PacketKind::kCount:
      break;
  }
  return true;
}

void VirtNic::ExportMetrics(MetricsRegistry& metrics) const {
  std::string prefix = "net/nic/" + name_ + "/";
  metrics.Inc(prefix + "kicks", stats_.kicks);
  metrics.Inc(prefix + "interrupts", stats_.interrupts);
  metrics.Inc(prefix + "coalesced", stats_.coalesced_frames);
  metrics.Inc(prefix + "irq_acks", stats_.irq_acks);
  metrics.Inc(prefix + "tx_pkts", stats_.tx_packets);
  metrics.Inc(prefix + "rx_pkts", stats_.rx_packets);
  metrics.Inc(prefix + "tx_bytes", stats_.tx_bytes);
  metrics.Inc(prefix + "rx_bytes", stats_.rx_bytes);
  metrics.Inc(prefix + "rx_drops", stats_.rx_drops);
  metrics.Inc(prefix + "rx_sheds", stats_.rx_sheds);
  metrics.Inc(prefix + "overloads", stats_.overloads);
  metrics.Inc(prefix + "refused", stats_.refused_conns);
  metrics.Inc(prefix + "accepted", stats_.accepted_conns);
}

void VirtNic::SnapCapture(SnapWriter& w) const {
  w.PutI64(config_.tx_batch);
  w.PutU64(config_.rx_ring);
  w.PutBool(config_.irq_per_batch);
  w.PutU64(stats_.kicks);
  w.PutU64(stats_.interrupts);
  w.PutU64(stats_.coalesced_frames);
  w.PutU64(stats_.irq_acks);
  w.PutU64(stats_.tx_packets);
  w.PutU64(stats_.rx_packets);
  w.PutU64(stats_.tx_bytes);
  w.PutU64(stats_.rx_bytes);
  w.PutU64(stats_.rx_drops);
  w.PutU64(stats_.rx_sheds);
  w.PutU64(stats_.overloads);
  w.PutU64(stats_.refused_conns);
  w.PutU64(stats_.accepted_conns);
}

void VirtNic::SnapApply(SnapReader& r) {
  config_.tx_batch = static_cast<int>(r.GetI64());
  config_.rx_ring = static_cast<size_t>(r.GetU64());
  config_.irq_per_batch = r.GetBool();
  if (config_.tx_batch < 1) {
    config_.tx_batch = 1;
  }
  stats_.kicks = r.GetU64();
  stats_.interrupts = r.GetU64();
  stats_.coalesced_frames = r.GetU64();
  stats_.irq_acks = r.GetU64();
  stats_.tx_packets = r.GetU64();
  stats_.rx_packets = r.GetU64();
  stats_.tx_bytes = r.GetU64();
  stats_.rx_bytes = r.GetU64();
  stats_.rx_drops = r.GetU64();
  stats_.rx_sheds = r.GetU64();
  stats_.overloads = r.GetU64();
  stats_.refused_conns = r.GetU64();
  stats_.accepted_conns = r.GetU64();
}

}  // namespace cki
