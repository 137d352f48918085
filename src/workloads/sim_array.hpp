// SimArray: a host-side array paired with a simulated address range.
//
// Workloads are real implementations (actual BFS trees, actual key-value
// pairs) whose every logical memory access is also charged to the simulated
// memory system.  A SimArray owns the host data and knows the simulated
// physical base, so `arr.read(ctx, i)` both returns the value and walks the
// cache/NIC timing path for the backing line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <string>
#include <vector>

#include "mem/address.hpp"
#include "node/context.hpp"
#include "node/node.hpp"

namespace tfsim::workloads {

/// Host storage of at least this many bytes is backed by transparent huge
/// pages where the kernel allows it.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// Allocate `bytes` of host storage.  Blocks of kHugePageBytes or more are
/// kHugePageBytes-aligned at their exact size, and the whole huge pages
/// inside them are advised as huge: first touch then faults once per 2 MiB
/// instead of once per 4 KiB, whatever memory the allocator reuses from
/// earlier runs.  Release with release_host_storage and the same size.
void* allocate_host_storage(std::size_t bytes);
void release_host_storage(void* p, std::size_t bytes) noexcept;

/// std::vector allocator over allocate_host_storage.
template <typename T>
struct HostAllocator {
  using value_type = T;

  HostAllocator() = default;
  template <typename U>
  HostAllocator(const HostAllocator<U>& /*other*/) noexcept {}

  T* allocate(std::size_t n) {
    if (n > static_cast<std::size_t>(-1) / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    return static_cast<T*>(allocate_host_storage(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    release_host_storage(p, n * sizeof(T));
  }

  friend bool operator==(const HostAllocator& /*a*/,
                         const HostAllocator& /*b*/) {
    return true;
  }
};

template <typename T>
class SimArray {
 public:
  using HostVector = std::vector<T, HostAllocator<T>>;

  /// Host elements start as `init`, written once.
  SimArray(node::Node& node, std::size_t count, node::Placement placement,
           std::string name = "array", const T& init = T{})
      : host_(count, init),
        base_(node.allocate(count * sizeof(T), placement)),
        name_(std::move(name)) {}

  std::size_t size() const { return host_.size(); }
  mem::Addr base() const { return base_; }
  mem::Addr addr_of(std::size_t i) const { return base_ + i * sizeof(T); }
  std::uint64_t bytes() const { return host_.size() * sizeof(T); }

  /// Host-only element access (no simulated cost) -- for setup/validation.
  T& operator[](std::size_t i) { return host_[i]; }
  const T& operator[](std::size_t i) const { return host_[i]; }

  /// Timed read: charges the access to `ctx`, returns the value.
  T read(node::MemContext& ctx, std::size_t i, bool dependent = false) const {
    ctx.read(addr_of(i), dependent);
    return host_[i];
  }

  /// Timed write.
  void write(node::MemContext& ctx, std::size_t i, const T& v) {
    ctx.write(addr_of(i));
    host_[i] = v;
  }

  HostVector& host() { return host_; }
  const HostVector& host() const { return host_; }
  const std::string& name() const { return name_; }

 private:
  HostVector host_;
  mem::Addr base_;
  std::string name_;
};

/// AddrSpan: simulated addresses for data owned elsewhere.  Used when a
/// workload already holds its host data (e.g. a CSR graph) and only needs
/// the simulated address mapping for timing.
template <typename T>
class AddrSpan {
 public:
  AddrSpan() = default;
  AddrSpan(node::Node& node, std::size_t count, node::Placement placement)
      : count_(count), base_(node.allocate(count * sizeof(T), placement)) {}

  std::size_t size() const { return count_; }
  mem::Addr base() const { return base_; }
  mem::Addr addr_of(std::size_t i) const { return base_ + i * sizeof(T); }
  std::uint64_t bytes() const { return count_ * sizeof(T); }

  /// Charge a read/write of element i to `ctx`.
  void touch_read(node::MemContext& ctx, std::size_t i,
                  bool dependent = false) const {
    ctx.read(addr_of(i), dependent);
  }
  void touch_write(node::MemContext& ctx, std::size_t i) const {
    ctx.write(addr_of(i));
  }

 private:
  std::size_t count_ = 0;
  mem::Addr base_ = 0;
};

}  // namespace tfsim::workloads
