#include "src/cki/binary_rewriter.h"

#include <cstring>
#include <string>

#include "src/fault/fault_domain.h"

namespace cki {

void EmitWrpkrs(std::vector<uint8_t>& image, size_t offset) {
  for (size_t i = 0; i < kWrpkrsOpcodeLen; ++i) {
    image[offset + i] = kWrpkrsOpcode[i];
  }
}

ScanReport BinaryRewriter::Scan(const std::vector<uint8_t>& image) const {
  ScanReport report;
  if (image.size() < kWrpkrsOpcodeLen) {
    return report;
  }
  // memchr finds each candidate first byte and memcmp confirms it; the
  // next search starts one byte past the candidate, so every byte offset
  // is still checked, overlapping and unaligned occurrences included.
  const uint8_t* const begin = image.data();
  const uint8_t* const last = begin + (image.size() - kWrpkrsOpcodeLen);  // last start
  const uint8_t* p = begin;
  while (p <= last) {
    const void* hit = std::memchr(p, kWrpkrsOpcode[0], static_cast<size_t>(last - p) + 1);
    if (hit == nullptr) {
      break;
    }
    p = static_cast<const uint8_t*>(hit);
    if (std::memcmp(p, kWrpkrsOpcode, kWrpkrsOpcodeLen) == 0) {
      const size_t off = static_cast<size_t>(p - begin);
      if (gate_offsets_.count(off) != 0) {
        report.gate_occurrences++;
      } else {
        report.violations.push_back(off);
      }
    }
    ++p;
  }
  return report;
}

void BinaryRewriter::RequireClean(const std::vector<uint8_t>& image) const {
  ScanReport report = Scan(image);
  if (!report.clean()) {
    throw FatalHostError("BinaryRewriter: stray wrpkrs in guest kernel image at offset " +
                         std::to_string(report.violations.front()));
  }
}

size_t BinaryRewriter::Rewrite(std::vector<uint8_t>& image) const {
  ScanReport report = Scan(image);
  for (size_t off : report.violations) {
    for (size_t i = 0; i < kWrpkrsOpcodeLen; ++i) {
      image[off + i] = 0x90;  // NOP
    }
  }
  return report.violations.size();
}

}  // namespace cki
