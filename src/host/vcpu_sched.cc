#include "src/host/vcpu_sched.h"

#include <algorithm>

#include "src/obs/trace_scope.h"

namespace cki {

uint64_t VcpuScheduler::Run(uint64_t max_slices) {
  uint64_t slices = 0;
  bool any_runnable = true;
  size_t cursor = 0;
  while (any_runnable && slices < max_slices) {
    any_runnable = false;
    for (size_t i = 0; i < tasks_.size(); ++i) {
      VcpuTask& task = tasks_[(cursor + i) % tasks_.size()];
      if (task.done) {
        continue;
      }
      if (!task.engine->alive()) {
        // Killed by its fault domain since the last slice: retire the vCPU
        // without entering the (torn-down) guest.
        task.done = true;
        continue;
      }
      any_runnable = true;
      slices++;
      task.slices++;

      // Resume: the host loads the vCPU context and enters the guest
      // (charged as one virtual-interrupt-style resume).
      TraceScope slice_scope(ctx_, task.engine->id(), Phase::kVcpuSlice);
      ctx_.ChargeWork(ctx_.cost().virq_inject);
      SimNanos slice_start = ctx_.clock().now();
      bool wants_more = true;
      try {
        while (wants_more && ctx_.clock().now() - slice_start < timeslice_) {
          wants_more = task.step();
        }
      } catch (const ContainerKilled&) {
        // The step tripped a container-fatal fault; the engine is already
        // torn down. The scheduler (and every other vCPU) keeps running.
        wants_more = false;
      }
      task.cpu_time += ctx_.clock().now() - slice_start;
      if (!wants_more) {
        task.done = true;
      } else {
        // Timer fired: the interrupt exits the guest through its design's
        // path regardless of what the guest was doing (CKI guarantees the
        // guest could not mask or monopolize it).
        task.preemptions++;
        ctx_.Charge(task.engine->DeviceInterruptCost(), PathEvent::kHwInterrupt);
      }
      cursor = (cursor + i + 1) % tasks_.size();
      break;  // round robin: one slice, then reconsider
    }
  }
  return slices;
}

double VcpuScheduler::FairnessRatio() const {
  SimNanos min_time = 0;
  SimNanos max_time = 0;
  bool first = true;
  for (const VcpuTask& task : tasks_) {
    if (first) {
      min_time = max_time = task.cpu_time;
      first = false;
    } else {
      min_time = std::min(min_time, task.cpu_time);
      max_time = std::max(max_time, task.cpu_time);
    }
  }
  if (max_time == 0) {
    return 1.0;
  }
  return static_cast<double>(min_time) / static_cast<double>(max_time);
}

}  // namespace cki
