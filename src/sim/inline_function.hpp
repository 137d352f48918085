// InlineFunction: a move-only type-erased callable that keeps small
// captures inside the object.
//
// The event calendar (sim/engine.hpp) and the routed-frame slab
// (net/network.hpp) each hold one callable per pending event or frame and
// move it a few times between scheduling and firing: into a slot, through
// a PDES outbox, out of the slot to run.  std::function fits that job
// poorly: it copies, it stores only 16 bytes inline, and every capture
// larger than that costs a heap allocation.  This type stores any callable
// of at most `Capacity` bytes (and at most max_align_t alignment) in place:
//
//  * a trivially copyable capture (pointers, ids, times) moves as a plain
//    fixed-size memcpy of the buffer and needs no destructor call;
//  * any other capture that fits (one holding a std::function, a string)
//    gets a manager function that move-constructs and destroys it;
//  * a capture larger than the buffer is boxed on the heap, and the buffer
//    holds only the pointer.
//
// The call operator is non-const, as callbacks run once from an owned
// object.  Calling an empty InlineFunction is undefined; test it with
// operator bool first.
#pragma once

#include <cstddef>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace tfsim::sim {

template <class Signature, std::size_t Capacity>
class InlineFunction;

template <class R, class... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
 public:
  /// True when a callable of type F is stored in the buffer (no heap box).
  template <class F>
  static constexpr bool stores_inline =
      sizeof(F) <= Capacity && alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  InlineFunction() noexcept = default;

  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, InlineFunction> &&
                                     std::is_invocable_r_v<R, D&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT: implicit, like std::function
    if constexpr (stores_inline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      invoke_ = &invoke_as<D>;
      if constexpr (!std::is_trivially_copyable_v<D>) {
        manage_ = &manage_inline<D>;
      }
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      invoke_ = &invoke_boxed<D>;
      manage_ = &manage_boxed<D>;
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { take(other); }
  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  InlineFunction& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }
  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;
  ~InlineFunction() { reset(); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  R operator()(Args... args) {
    return invoke_(static_cast<void*>(buf_), std::forward<Args>(args)...);
  }

 private:
  using Invoke = R (*)(void*, Args&&...);
  /// Moves the callable in `src` into `dst` and destroys the source; with
  /// dst == nullptr only destroys `src`.
  using Manage = void (*)(void* dst, void* src) noexcept;

  template <class D>
  static R invoke_as(void* p, Args&&... args) {
    D& f = *std::launder(static_cast<D*>(p));
    if constexpr (std::is_void_v<R>) {
      std::invoke(f, std::forward<Args>(args)...);
    } else {
      return std::invoke(f, std::forward<Args>(args)...);
    }
  }
  template <class D>
  static R invoke_boxed(void* p, Args&&... args) {
    return invoke_as<D>(*std::launder(static_cast<D**>(p)),
                        std::forward<Args>(args)...);
  }
  template <class D>
  static void manage_inline(void* dst, void* src) noexcept {
    D* from = std::launder(static_cast<D*>(src));
    if (dst != nullptr) ::new (dst) D(std::move(*from));
    from->~D();
  }
  template <class D>
  static void manage_boxed(void* dst, void* src) noexcept {
    D* box = *std::launder(static_cast<D**>(src));
    if (dst != nullptr) {
      ::new (dst) D*(box);  // the box changes hands; nothing is moved
    } else {
      delete box;
    }
  }

  void take(InlineFunction& other) noexcept {
    if (other.manage_ != nullptr) {
      other.manage_(static_cast<void*>(buf_), static_cast<void*>(other.buf_));
    } else if (other.invoke_ != nullptr) {
      std::memcpy(buf_, other.buf_, Capacity);
    }
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }
  void reset() noexcept {
    if (manage_ != nullptr) manage_(nullptr, static_cast<void*>(buf_));
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[Capacity];
  Invoke invoke_ = nullptr;
  Manage manage_ = nullptr;  ///< null: trivially copyable, or empty
};

}  // namespace tfsim::sim
