// Fixed-capacity ring buffer of timestamped trace records.
//
// The flight recorder keeps the most recent N records (architectural
// events and span begin/end markers) with bounded memory; when the ring
// wraps, the oldest records are overwritten and counted — overflow is
// never silent. Records carry the owning container id so multi-tenant
// traces attribute each event to the container that caused it.
//
// Thread-safety: none — one recorder belongs to one machine's
// observability hub and is only touched from that shard's thread. Under
// SimCluster each shard keeps its own recorder and hands it across the
// thread join by value (Observability::Detach); recorders are never
// merged — each shard exports as its own trace process track, which is
// how --trace-out stays exact under parallelism.
// Ownership: owned by its Observability hub; Chronological() returns an
// independent copy the caller owns.
#ifndef SRC_OBS_FLIGHT_RECORDER_H_
#define SRC_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <vector>

#include "src/sim/clock.h"

namespace cki {

enum class TraceRecordKind : uint8_t {
  kInstant = 0,  // architectural event; code is a PathEvent
  kSpanBegin,    // TraceScope entry; code is a Phase
  kSpanEnd,      // TraceScope exit; code is a Phase
  // Causal flow points: `arg` is the request trace_id (trace_context.h);
  // the exporter turns these into Perfetto flow events, which render one
  // request as a single arrow chain across containers and shards.
  kFlowStart,  // request minted (load generator)
  kFlowStep,   // request crossed a hop (switch forward / NIC receive)
  kFlowEnd,    // response arrived back at the generator
};

struct TraceRecord {
  SimNanos ts = 0;     // simulated time of the record
  uint64_t arg = 0;    // event-specific payload (0 when unused)
  uint32_t owner = 0;  // container id (0: host kernel)
  uint16_t code = 0;   // PathEvent or Phase, per `kind`
  TraceRecordKind kind = TraceRecordKind::kInstant;
};

class FlightRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 1 << 16;

  explicit FlightRecorder(size_t capacity = kDefaultCapacity)
      : ring_(capacity == 0 ? 1 : capacity) {}

  // Appends one record, overwriting the oldest when full. O(1).
  void Record(const TraceRecord& r) {
    ring_[next_] = r;
    next_ = (next_ + 1) % ring_.size();
    total_++;
  }

  size_t capacity() const { return ring_.size(); }
  size_t size() const { return total_ < ring_.size() ? static_cast<size_t>(total_) : ring_.size(); }
  // Records ever submitted, including overwritten ones.
  uint64_t total_recorded() const { return total_; }
  // Records lost to ring overwrite.
  uint64_t dropped() const { return total_ - size(); }

  // The retained records, oldest first.
  std::vector<TraceRecord> Chronological() const {
    std::vector<TraceRecord> out;
    size_t n = size();
    out.reserve(n);
    size_t start = (total_ > ring_.size()) ? next_ : 0;
    for (size_t i = 0; i < n; ++i) {
      out.push_back(ring_[(start + i) % ring_.size()]);
    }
    return out;
  }

  void Clear() {
    next_ = 0;
    total_ = 0;
  }

 private:
  std::vector<TraceRecord> ring_;
  size_t next_ = 0;
  uint64_t total_ = 0;
};

}  // namespace cki

#endif  // SRC_OBS_FLIGHT_RECORDER_H_
