#include "workloads/sim_array.hpp"

#include <sys/mman.h>

namespace tfsim::workloads {

void* allocate_host_storage(std::size_t bytes) {
  if (bytes < kHugePageBytes) return ::operator new(bytes);
  void* p = ::operator new(bytes, std::align_val_t{kHugePageBytes});
  // The advice is only a hint: where the kernel declines (huge pages off,
  // or no madvise support) the block stays valid on ordinary pages, so the
  // result is deliberately ignored.
  static_cast<void>(::madvise(p, bytes / kHugePageBytes * kHugePageBytes,
                              MADV_HUGEPAGE));
  return p;
}

void release_host_storage(void* p, std::size_t bytes) noexcept {
  if (bytes < kHugePageBytes) {
    ::operator delete(p);
  } else {
    ::operator delete(p, std::align_val_t{kHugePageBytes});
  }
}

}  // namespace tfsim::workloads
