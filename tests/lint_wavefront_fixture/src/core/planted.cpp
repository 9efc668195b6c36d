// Planted wavefront-64 lint violations: the fixture for
// scripts/check_lint_wavefront_fixture.sh.  Never compiled.  Comment lines
// like this one may name __ballot_sync, __popc( and 0xffffffff masks.
#include <cstdint>

namespace fixture {

constexpr std::uint32_t kUnvisited = 0xFFFFFFFFu;  // a sentinel, not a mask

unsigned planted(unsigned lane, bool pred, std::uint64_t ballot) {
  unsigned mask = __ballot_sync(0xffffffff, pred);
  unsigned active = __activemask();
  int bits = __popc(ballot);
  unsigned warp = lane >> 5;
  unsigned sub = lane & 31;
  unsigned full = mask == 0xffffffff ? 1u : 0u;
  unsigned cuda = __ballot_sync(0xffffffff, pred);  // wf64-ok: CUDA baseline
  /* __any_sync(0xffffffff, pred) */
   * __popc(ballot) inside a block comment
  int clean = 0;  // __popc(ballot) in a trailing comment
  return mask + active + bits + warp + sub + full + cuda + clean +
         kUnvisited;
}

}  // namespace fixture
