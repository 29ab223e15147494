// Binary-rewriting verifier for guest kernel code (section 4.1).
//
// wrpkrs must appear only inside registered switch gates; any other
// occurrence — aligned or not, including sequences that straddle intended
// instruction boundaries — would let the guest raise its own PKRS. The
// scanner checks every byte offset of the frozen code image (the monitor
// separately guarantees no new kernel-executable mappings appear, so a scan
// at seal time covers the container's lifetime).
#ifndef SRC_CKI_BINARY_REWRITER_H_
#define SRC_CKI_BINARY_REWRITER_H_

#include <cstdint>
#include <set>
#include <vector>

#include "src/hw/instr.h"

namespace cki {

struct ScanReport {
  // Byte offsets of wrpkrs sequences found outside registered gates.
  std::vector<size_t> violations;
  size_t gate_occurrences = 0;

  bool clean() const { return violations.empty(); }
};

class BinaryRewriter {
 public:
  // Registers a legitimate gate site (offset of its wrpkrs instruction).
  void RegisterGateOffset(size_t offset) { gate_offsets_.insert(offset); }

  const std::set<size_t>& gate_offsets() const { return gate_offsets_; }

  // Scans the code image at every byte offset for the wrpkrs byte pattern.
  ScanReport Scan(const std::vector<uint8_t>& image) const;

  // Scan() as an always-on check, in every build type: throws
  // FatalHostError naming the first stray wrpkrs offset.
  void RequireClean(const std::vector<uint8_t>& image) const;

  // Rewrites non-gate occurrences in place (NOP fill), returning how many
  // sites were patched. Models the offline rewriting pass.
  size_t Rewrite(std::vector<uint8_t>& image) const;

 private:
  std::set<size_t> gate_offsets_;
};

// Helper used by tests and the engine: writes the wrpkrs byte pattern into
// an image at `offset`.
void EmitWrpkrs(std::vector<uint8_t>& image, size_t offset);

}  // namespace cki

#endif  // SRC_CKI_BINARY_REWRITER_H_
