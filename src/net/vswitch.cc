#include "src/net/vswitch.h"

#include <iterator>

#include "src/fault/fault_injector.h"
#include "src/fault/gray_fault.h"
#include "src/obs/trace_scope.h"
#include "src/sim/fnv.h"

namespace cki {

namespace {

// Chains one forwarded frame into the running FNV-1a trace digest. The
// trace_id/span_id fields are deliberately excluded: causal identities
// annotate the packet trace but must never perturb it (the sampling
// determinism invariant of DESIGN.md §11 depends on this). deadline_ns is
// included — deadlines drive RX admission decisions, so they are behavior,
// not annotation.
uint64_t HashFrame(uint64_t h, const Packet& p) {
  const uint64_t words[] = {
      static_cast<uint64_t>(p.src),
      static_cast<uint64_t>(p.dst),
      static_cast<uint64_t>(p.flow),
      (static_cast<uint64_t>(p.service) << 8) | static_cast<uint64_t>(p.kind),
      p.bytes,
      p.deadline_ns,
  };
  return FnvMixWords(h, words, std::size(words));
}

}  // namespace

int VSwitch::AttachPort(NetDevice& dev, std::string name) {
  PortState port;
  port.dev = &dev;
  port.name = std::move(name);
  ports_.push_back(std::move(port));
  return static_cast<int>(ports_.size() - 1);
}

void VSwitch::Absorb(const Packet& p) {
  forwarded_++;
  trace_hash_ = HashFrame(trace_hash_, p);
}

void VSwitch::DetachPort(int port) {
  if (port < 0 || static_cast<size_t>(port) >= ports_.size()) {
    return;
  }
  PortState& dst = ports_[static_cast<size_t>(port)];
  dst.dev = nullptr;
  dst.stats.drops += dst.queue.size();
  dst.queue.clear();
}

bool VSwitch::Send(const Packet& p) {
  TraceScope obs_scope(ctx_, Phase::kNetHop);
  if (p.src >= 0 && static_cast<size_t>(p.src) < ports_.size()) {
    PortState& src = ports_[static_cast<size_t>(p.src)];
    src.stats.tx_packets++;
    src.stats.tx_bytes += p.bytes;
  }
  // Store-and-forward: fixed fabric latency plus serialization time. Open
  // gray episodes inflate the fixed hop and divide the serialization rate
  // — the link is alive, just worse.
  SimNanos now = ctx_.clock().now();
  SimNanos hop = link_.hop_latency;
  uint64_t rate = link_.bytes_per_ns;
  if (gray_ != nullptr) {
    hop = hop * gray_->LatencyMultX1000(now) / 1000;
    rate = rate / gray_->ThrottleDiv(now);
    if (link_.bytes_per_ns > 0 && rate == 0) {
      rate = 1;
    }
  }
  if (rate > 0) {
    hop += p.bytes / rate;
  }
  ctx_.ChargeWork(hop);
  if (p.dst < 0 || static_cast<size_t>(p.dst) >= ports_.size()) {
    if (p.src >= 0 && static_cast<size_t>(p.src) < ports_.size()) {
      ports_[static_cast<size_t>(p.src)].stats.drops++;
    }
    return false;
  }
  PortState& dst = ports_[static_cast<size_t>(p.dst)];
  if (dst.dev == nullptr) {
    // Detached port (container killed): frames toward it black-hole.
    dst.stats.drops++;
    return false;
  }
  Absorb(p);
  // Forwarded traced frame: one causal flow step on this hop, inside the
  // net/hop span so the exporter can bind the arrow to the slice.
  if (p.trace_id != 0) {
    ctx_.obs().RecordFlowPoint(ctx_.clock().now(), TraceRecordKind::kFlowStep, p.trace_id);
  }
  if (injector_ != nullptr && injector_->InjectPacketDrop()) {
    injected_drops_++;
    dst.stats.drops++;
    return false;
  }
  if (gray_ != nullptr && gray_->SwallowPacket(ctx_.clock().now())) {
    // Blackhole episode: the frame silently vanishes mid-fabric. No RST,
    // no signal — exactly the loss mode timeouts exist for.
    gray_drops_++;
    dst.stats.drops++;
    return false;
  }
  bool delivered = Offer(dst, p);
  if (delivered && injector_ != nullptr && injector_->InjectPacketDup()) {
    injected_dups_++;
    Absorb(p);  // the duplicate is part of the packet trace too
    Offer(dst, p);
  }
  return delivered;
}

bool VSwitch::Offer(PortState& dst, const Packet& p) {
  if (dst.dev == nullptr) {
    // Delivery of the original frame can kill (and detach) the very port
    // a duplicate is bound for.
    dst.stats.drops++;
    return false;
  }
  // Frames already waiting toward this port keep FIFO order.
  if (dst.queue.empty() && dst.dev->DeliverFrame(p)) {
    dst.stats.rx_packets++;
    dst.stats.rx_bytes += p.bytes;
    return true;
  }
  if (dst.queue.size() >= link_.port_queue_capacity) {
    dst.stats.drops++;
    return false;
  }
  dst.queue.push_back(p);
  dst.stats.queued++;
  return true;
}

void VSwitch::DrainPort(int port) {
  if (port < 0 || static_cast<size_t>(port) >= ports_.size()) {
    return;
  }
  PortState& dst = ports_[static_cast<size_t>(port)];
  while (dst.dev != nullptr && !dst.queue.empty()) {
    Packet p = dst.queue.front();  // by value: delivery may detach the port
    if (!dst.dev->DeliverFrame(p)) {
      return;
    }
    dst.stats.rx_packets++;
    dst.stats.rx_bytes += p.bytes;
    if (dst.queue.empty()) {
      break;  // delivery killed the container and flushed the queue
    }
    dst.queue.pop_front();
  }
}

void VSwitch::ExportMetrics(MetricsRegistry& metrics) const {
  metrics.Inc("net/switch/packets", forwarded_);
  metrics.Inc("net/switch/injected_drops", injected_drops_);
  metrics.Inc("net/switch/injected_dups", injected_dups_);
  metrics.Inc("net/switch/gray_drops", gray_drops_);
  for (const PortState& port : ports_) {
    std::string prefix = "net/port/" + port.name + "/";
    metrics.Inc(prefix + "tx_pkts", port.stats.tx_packets);
    metrics.Inc(prefix + "tx_bytes", port.stats.tx_bytes);
    metrics.Inc(prefix + "rx_pkts", port.stats.rx_packets);
    metrics.Inc(prefix + "rx_bytes", port.stats.rx_bytes);
    metrics.Inc(prefix + "queued", port.stats.queued);
    metrics.Inc(prefix + "drops", port.stats.drops);
  }
}

}  // namespace cki
