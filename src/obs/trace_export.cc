#include "src/obs/trace_export.h"

#include <cstdio>
#include <map>

#include "src/obs/json_util.h"
#include "src/obs/phase.h"

namespace cki {

namespace {

// Chrome trace timestamps are microseconds; keep ns resolution as
// fractional digits.
void WriteTs(std::ostream& os, SimNanos ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu", static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  os << buf;
}

std::string_view RecordName(const TraceRecord& r) {
  if (r.kind == TraceRecordKind::kInstant) {
    return r.code < static_cast<uint16_t>(PathEvent::kCount)
               ? PathEventName(static_cast<PathEvent>(r.code))
               : std::string_view("unknown");
  }
  return PhaseName(static_cast<Phase>(r.code));
}

}  // namespace

void WriteChromeTraceEvents(const Observability& obs, uint32_t pid, std::string_view process_name,
                            bool* first, std::ostream& os) {
  auto emit_comma = [&] {
    if (!*first) {
      os << ",\n";
    }
    *first = false;
  };
  emit_comma();
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":0,\"args\":{\"name\":";
  WriteJsonString(os, process_name);
  os << "}}";
  if (!obs.has_data()) {
    return;
  }
  // The recorder ring drops its oldest records on overflow, which can
  // truncate a span's Begin marker while its End survives; emitting such an
  // orphan End would unbalance the track, so track per-tid depth and skip.
  std::map<uint32_t, uint64_t> open_spans;
  for (const TraceRecord& r : obs.recorder().Chronological()) {
    if (r.kind == TraceRecordKind::kFlowStart || r.kind == TraceRecordKind::kFlowStep ||
        r.kind == TraceRecordKind::kFlowEnd) {
      // Causal flow point: `arg` is the request trace_id. Same name/cat/id
      // across all points of one request lets Perfetto draw the arrow
      // chain between the slices the points land on — across containers
      // (tids) and across shards (pids).
      emit_comma();
      char id[32];
      std::snprintf(id, sizeof(id), "0x%016llx", static_cast<unsigned long long>(r.arg));
      os << "{\"name\":\"req\",\"cat\":\"flow\",\"ph\":\""
         << (r.kind == TraceRecordKind::kFlowStart
                 ? 's'
                 : r.kind == TraceRecordKind::kFlowStep ? 't' : 'f')
         << "\"";
      if (r.kind == TraceRecordKind::kFlowEnd) {
        os << ",\"bp\":\"e\"";
      }
      os << ",\"ts\":";
      WriteTs(os, r.ts);
      os << ",\"pid\":" << pid << ",\"tid\":" << r.owner << ",\"id\":\"" << id << "\"}";
      continue;
    }
    if (r.kind == TraceRecordKind::kSpanBegin) {
      open_spans[r.owner]++;
    } else if (r.kind == TraceRecordKind::kSpanEnd) {
      if (open_spans[r.owner] == 0) {
        continue;
      }
      open_spans[r.owner]--;
    }
    emit_comma();
    os << "{\"name\":";
    WriteJsonString(os, RecordName(r));
    os << ",\"cat\":";
    switch (r.kind) {
      case TraceRecordKind::kInstant:
        os << "\"event\",\"ph\":\"i\",\"s\":\"t\"";
        break;
      case TraceRecordKind::kSpanBegin:
        os << "\"span\",\"ph\":\"B\"";
        break;
      case TraceRecordKind::kSpanEnd:
        os << "\"span\",\"ph\":\"E\"";
        break;
      case TraceRecordKind::kFlowStart:
      case TraceRecordKind::kFlowStep:
      case TraceRecordKind::kFlowEnd:
        break;  // handled (and `continue`d) above
    }
    os << ",\"ts\":";
    WriteTs(os, r.ts);
    os << ",\"pid\":" << pid << ",\"tid\":" << r.owner;
    if (r.arg != 0) {
      os << ",\"args\":{\"arg\":" << r.arg << "}";
    }
    os << "}";
  }
}

void WriteChromeTrace(const Observability& obs, std::ostream& os) {
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  WriteChromeTraceEvents(obs, 1, "cki-sim", &first, os);
  os << "\n]}\n";
}

}  // namespace cki
