#include "src/host/virtio.h"

#include "src/obs/trace_scope.h"

namespace cki {

VirtioNetAdapter::VirtioNetAdapter(ContainerEngine& engine, int tx_batch)
    : engine_(engine),
      ctx_(engine.machine().ctx()),
      // A private point-to-point fabric: no hop latency, no serialization
      // charge, deep queues — the adapter models only the device costs, as
      // it always did.
      sw_(ctx_, LinkConfig{.hop_latency = 0, .bytes_per_ns = 0, .port_queue_capacity = 4096}),
      client_port_(sw_.AttachPort(client_, "client")),
      nic_(engine, sw_, "virtio0",
           NicConfig{.tx_batch = tx_batch, .rx_ring = 4096, .irq_per_batch = true}) {}

void VirtioNetAdapter::EnsureConn(int conn) {
  // Legacy adapter connections are implicit: no handshake.
  nic_.OpenRawFlow(conn, client_port_);
}

void VirtioNetAdapter::ClientSubmitBatch(int conn, int count, uint64_t bytes) {
  if (count <= 0) {
    return;
  }
  TraceScope obs_scope(ctx_, engine_.id(), Phase::kVirtioDeliver);
  EnsureConn(conn);
  // Backend places the buffers into the queue and notifies the guest once.
  ctx_.ChargeWork(ctx_.cost().virtio_host_service);
  for (int i = 0; i < count; ++i) {
    sw_.Send(Packet{.src = client_port_,
                    .dst = nic_.port(),
                    .flow = conn,
                    .kind = PacketKind::kData,
                    .bytes = bytes});
  }
  nic_.CompleteBatch();
}

uint64_t VirtioNetAdapter::ClientCollect(int conn) { return client_.Collect(conn); }

uint64_t VirtioNetAdapter::Transmit(int conn, uint64_t bytes) {
  EnsureConn(conn);
  return nic_.Transmit(conn, bytes);
}

uint64_t VirtioNetAdapter::Receive(int conn, uint64_t max_bytes) {
  return nic_.Receive(conn, max_bytes);
}

bool VirtioNetAdapter::HasPending() const { return nic_.HasPending(); }

VirtioStats VirtioNetAdapter::stats() const {
  const NicStats& n = nic_.stats();
  return VirtioStats{.kicks = n.kicks,
                     .interrupts = n.interrupts,
                     .rx_requests = n.rx_packets,
                     .tx_responses = n.tx_packets};
}

bool VirtioNetAdapter::ClientPort::DeliverFrame(const Packet& p) {
  if (p.kind == PacketKind::kData) {
    responses_[p.flow]++;
  }
  return true;
}

uint64_t VirtioNetAdapter::ClientPort::Collect(int conn) {
  auto it = responses_.find(conn);
  if (it == responses_.end()) {
    return 0;
  }
  uint64_t n = it->second;
  it->second = 0;
  return n;
}

}  // namespace cki
