// Per-container virtio-net NIC attached to the host vswitch.
//
// The NIC is both sides of the seam: toward the guest kernel it is the
// NetPort behind sendto/recvfrom/listen/accept/connect, toward the switch it
// is a NetDevice port. Costs land where each container design pays them:
//   * TX doorbell kicks (engine.KickCost) — amortized over `tx_batch` frames
//   * RX interrupts (engine.DeviceInterruptCost) — NAPI-coalesced: a new
//     interrupt is raised only when none is pending; frames that arrive
//     while the guest is already polling are counted as coalesced
//   * interrupt acknowledge (engine.InterruptAckCost) when the RX ring
//     drains — the EOI/queue-unmask write that re-arms the device
//   * per-frame frontend service and the per-frame emulation extra of
//     designs that kept an MMIO-based frontend (engine.VirtioEmulationExtra).
//
// The connection layer is a minimal in-fabric TCP analogue: SYN names a
// service, the listener answers SYN-ACK (backlog permitting) or RST, and
// established flows are routed by a switch-global flow id.
#ifndef SRC_NET_VIRT_NIC_H_
#define SRC_NET_VIRT_NIC_H_

#include <deque>
#include <map>
#include <string>
#include <unordered_map>

#include "src/net/vswitch.h"
#include "src/obs/trace_context.h"
#include "src/runtime/engine.h"

namespace cki {

struct NicConfig {
  int tx_batch = 1;      // frames buffered per doorbell kick
  size_t rx_ring = 256;  // RX descriptors; full ring pushes back on the switch
  // Legacy virtio-adapter mode: every delivered batch raises its own
  // interrupt (CompleteBatch) instead of NAPI coalescing, and no
  // interrupt-acknowledge cost is charged.
  bool irq_per_batch = false;
  // Admission control (src/resil, DESIGN.md §13): estimated per-frame
  // guest service time used for the deadline-feasibility bound at RX. A
  // deadline-stamped data frame is shed (consumed and dropped, counted in
  // rx_sheds) when now + rx_buffered * est > deadline — serving it would
  // only waste capacity on an already-doomed request. 0 sheds only frames
  // whose deadline has already expired outright.
  SimNanos rx_est_service_ns = 0;
};

struct NicStats {
  uint64_t kicks = 0;
  uint64_t interrupts = 0;
  uint64_t coalesced_frames = 0;  // RX frames that rode an already-pending IRQ
  uint64_t irq_acks = 0;
  uint64_t tx_packets = 0;
  uint64_t rx_packets = 0;
  uint64_t tx_bytes = 0;
  uint64_t rx_bytes = 0;
  uint64_t rx_drops = 0;       // frames for unknown flows
  uint64_t rx_sheds = 0;       // frames shed: deadline infeasible at RX
  uint64_t overloads = 0;      // RX-ring overrun backpressure events
  uint64_t refused_conns = 0;  // SYNs answered with RST
  uint64_t accepted_conns = 0;
};

class VirtNic : public NetPort, public NetDevice {
 public:
  VirtNic(ContainerEngine& engine, VSwitch& sw, std::string name, NicConfig config = NicConfig{});
  ~VirtNic() override;

  int port() const { return port_; }
  const NicStats& stats() const { return stats_; }
  const std::string& name() const { return name_; }
  bool detached() const { return detached_; }

  // Unplugs the NIC from the switch and drops all in-flight state. Runs
  // automatically (via a FaultBus kill hook) when the owning container is
  // killed; idempotent.
  void Detach();

  // Arms deterministic virtio descriptor corruption (chaos testing).
  void set_injector(FaultInjector* injector) { injector_ = injector; }

  // --- guest side (NetPort) ----------------------------------------------
  uint64_t Transmit(int conn, uint64_t bytes) override;
  uint64_t Receive(int conn, uint64_t max_bytes) override;
  bool HasPending() const override;
  int64_t Listen(uint16_t service, int backlog) override;
  int64_t Accept(int64_t handle) override;
  int64_t Connect(int dst_port, uint16_t service) override;
  void CloseConn(int conn) override;

  // Rings the doorbell for any buffered TX frames (benchmark tails below
  // the batch threshold would otherwise never reach the wire).
  void Flush();
  // Re-evaluates buffered frames against the new threshold immediately, so
  // lowering the batch size cannot strand them.
  void set_tx_batch(int tx_batch);
  int tx_pending() const { return static_cast<int>(tx_ring_.size()); }

  // Opens an established flow without a handshake (legacy virtio-adapter
  // connections are implicit).
  void OpenRawFlow(int flow, int peer_port);

  // Legacy mode: raises one interrupt for a just-delivered batch.
  void CompleteBatch();

  // --- switch side (NetDevice) ---------------------------------------------
  bool DeliverFrame(const Packet& p) override;

  // Dumps counters as `net/nic/<name>/<counter>`.
  void ExportMetrics(MetricsRegistry& metrics) const;

  // --- snapshot (src/snap; DESIGN.md §10) ----------------------------------
  // Captures/applies NIC config + traffic counters. Live flows, listeners
  // and ring contents are NOT migrated — like a live migration dropping
  // established TCP state, a restored container re-listens/re-connects.
  void SnapCapture(SnapWriter& w) const;
  void SnapApply(SnapReader& r);

 private:
  // One guest-bound frame parked in the RX ring: its size plus the causal
  // identity it carries, so the guest adopts the request's trace when it
  // actually receives the frame (not when the switch delivered it).
  struct RxFrame {
    uint64_t bytes = 0;
    TraceContext trace;
  };

  struct FlowState {
    int peer = -1;                // switch port of the other end
    std::deque<RxFrame> rx{};     // pending frames, guest-bound
    uint64_t rx_flow_bytes = 0;   // per-flow byte accounting
    uint64_t tx_flow_bytes = 0;
  };

  struct Listener {
    int backlog = 0;
    std::deque<int> pending{};  // established flows awaiting Accept
  };

  void Kick();
  void RaiseIrq();
  void AckIrqIfDrained();

  ContainerEngine& engine_;
  VSwitch& sw_;
  SimContext& ctx_;
  std::string name_;
  NicConfig config_;
  int port_;
  FaultInjector* injector_ = nullptr;
  uint64_t kill_hook_token_ = 0;
  bool detached_ = false;

  std::deque<Packet> tx_ring_;  // frames buffered until the next kick
  size_t rx_buffered_ = 0;      // frames across all flow RX queues
  bool irq_pending_ = false;

  std::unordered_map<int, FlowState> flows_;
  std::map<uint16_t, Listener> listeners_;
  // Handshake results keyed by flow: set by SYN-ACK/RST delivery while
  // Connect()'s kick is still on the stack (delivery is synchronous).
  std::unordered_map<int, int64_t> connect_results_;

  NicStats stats_;
};

}  // namespace cki

#endif  // SRC_NET_VIRT_NIC_H_
