// Time, bandwidth and size units used throughout the simulator.
//
// Simulated time is an integer count of picoseconds.  Picosecond resolution
// lets us represent both FPGA clock periods (~3.125 ns) and multi-second
// application runs in one 64-bit integer without rounding drift
// (2^64 ps ~ 213 days of simulated time).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace tfsim::sim {

/// Simulated time in picoseconds.
using Time = std::uint64_t;

inline constexpr Time kPicosecond = 1;
inline constexpr Time kNanosecond = 1'000;
inline constexpr Time kMicrosecond = 1'000'000;
inline constexpr Time kMillisecond = 1'000'000'000;
inline constexpr Time kSecond = 1'000'000'000'000ULL;

/// A time far in the future; used as "never" / infinity sentinel.
inline constexpr Time kTimeNever = ~Time{0};

/// Throws the overflow error of checked_add; kept out of line so the
/// callers' hot paths carry only the compare.
[[noreturn, gnu::cold, gnu::noinline]] inline void throw_time_overflow(
    const char* what, Time t, Time dt) {
  throw std::logic_error(std::string(what) +
                         ": t + dt overflows simulated time (t=" +
                         std::to_string(t) + " ps, dt=" + std::to_string(dt) +
                         " ps)");
}

/// t + dt, throwing std::logic_error (naming `what`) instead of wrapping
/// past kTimeNever, as Engine::schedule_in does.
inline Time checked_add(Time t, Time dt, const char* what) {
  if (dt > kTimeNever - t) throw_time_overflow(what, t, dt);
  return t + dt;
}

constexpr double to_ns(Time t) { return static_cast<double>(t) / static_cast<double>(kNanosecond); }
constexpr double to_us(Time t) { return static_cast<double>(t) / static_cast<double>(kMicrosecond); }
constexpr double to_ms(Time t) { return static_cast<double>(t) / static_cast<double>(kMillisecond); }
constexpr double to_sec(Time t) { return static_cast<double>(t) / static_cast<double>(kSecond); }

constexpr Time from_ns(double ns) { return static_cast<Time>(ns * static_cast<double>(kNanosecond)); }
constexpr Time from_us(double us) { return static_cast<Time>(us * static_cast<double>(kMicrosecond)); }
constexpr Time from_ms(double ms) { return static_cast<Time>(ms * static_cast<double>(kMillisecond)); }
constexpr Time from_sec(double s) { return static_cast<Time>(s * static_cast<double>(kSecond)); }

// ---------------------------------------------------------------------------
// Sizes.

inline constexpr std::uint64_t kKiB = 1024;
inline constexpr std::uint64_t kMiB = 1024 * kKiB;
inline constexpr std::uint64_t kGiB = 1024 * kMiB;

// ---------------------------------------------------------------------------
// Bandwidth.  Stored as bytes per second (double: values like 12.5e9 are
// exactly representable and we never accumulate in this unit).

struct Bandwidth {
  double bytes_per_sec = 0.0;

  static constexpr Bandwidth from_gbit(double gbit_per_sec) {
    return Bandwidth{gbit_per_sec * 1e9 / 8.0};
  }
  static constexpr Bandwidth from_gbyte(double gbyte_per_sec) {
    return Bandwidth{gbyte_per_sec * 1e9};
  }
  constexpr double gbyte_per_sec() const { return bytes_per_sec / 1e9; }
  constexpr double gbit_per_sec() const { return bytes_per_sec * 8.0 / 1e9; }

  /// Time to serialize `bytes` onto a channel of this bandwidth.
  constexpr Time serialization_time(std::uint64_t bytes) const {
    if (bytes_per_sec <= 0.0) return kTimeNever;
    return static_cast<Time>(static_cast<double>(bytes) / bytes_per_sec *
                             static_cast<double>(kSecond));
  }
};

/// Frequency helper: period of a clock in picoseconds.
constexpr Time clock_period(double hz) {
  return static_cast<Time>(static_cast<double>(kSecond) / hz);
}

}  // namespace tfsim::sim
