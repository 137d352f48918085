#include "scenario/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <type_traits>

namespace tfsim::scenario {

namespace {

// --- field tables ----------------------------------------------------------
//
// Each JSON block of a scenario is declared once, as a table of Field rows:
// the key, how to read and write the member (the unit conversion, if any)
// and the accepted range.  read_block() parses a block against its table,
// rejecting unknown keys and out-of-range values with the field's full path
// ("nodes[0].nic.window_entries: must be an integer in [1, 4294967295], got
// 0"); write_block() dumps it.  A dump therefore parses back to the same
// spec by construction.  Defaults live only in the member initialisers in
// scenario.hpp.  Rules spanning several fields run after the walk, in
// validate().

using Type = FieldInfo::Type;

constexpr double kBytesPerGiB = 1024.0 * 1024.0 * 1024.0;
constexpr double kMaxGiB = 1024.0 * 1024.0;  // 1 PiB of DRAM or reservation
/// JSON numbers are doubles: integers above 2^53 would not survive.
constexpr double kMaxInteger = 9007199254740992.0;
/// Times stop at 1e18 ps (about 11.6 simulated days): below kTimeNever,
/// with room to add two of them without wrapping.
constexpr double kMaxTimePs = 1e18;
/// PERIOD gate cap: period x Tclk stays within kMaxTimePs even at the
/// slowest accepted FPGA clock (1 kHz).
constexpr double kMaxPeriod = 1e9;
constexpr double kMaxGbit = 1e6;      // link bandwidth, Gbit/s
constexpr double kMaxGbyte = 1e6;     // DRAM bus bandwidth, GB/s
constexpr double kMaxRate = 1e9;      // offered or served requests/s
constexpr double kMaxFactor = 1e3;    // multipliers: backoff, inflation, ...
constexpr double kMaxFrame = 1024.0 * 1024.0 * 1024.0;  // bytes per frame

std::string join(const std::string& path, const std::string& key) {
  return path.empty() ? key : path + "." + key;
}

[[noreturn]] void fail(const std::string& path, const std::string& msg) {
  throw JsonError("scenario: " + (path.empty() ? "" : path + ": ") + msg);
}

/// How an offending value reads in an error message.
std::string shown(const Json& v) {
  if (v.is_array()) return "an array";
  if (v.is_object()) return "an object";
  return v.dump(-1);
}

std::string range_text(const Range& r) {
  return (r.lo_open ? "(" : "[") + Json::number(r.lo).dump() + ", " +
         Json::number(r.hi).dump() + (r.hi_open ? ")" : "]");
}

double read_number(const Json& v, const std::string& path, Type type,
                   const Range& r) {
  const bool integer = type == Type::kInteger;
  const double x = v.is_number() ? v.as_double() : std::nan("");
  if (!std::isfinite(x) || (integer && x != std::floor(x)) ||
      (r.lo_open ? x <= r.lo : x < r.lo) ||
      (r.hi_open ? x >= r.hi : x > r.hi)) {
    fail(path, std::string("must be ") + (integer ? "an integer" : "a number") +
                   " in " + range_text(r) + ", got " + shown(v));
  }
  return x;
}

template <typename T>
struct Field {
  const char* key;
  std::function<void(T&, const Json&, const std::string& path)> read;
  /// nullopt leaves the key out of the dump.
  std::function<std::optional<Json>(const T&)> write;
  std::function<void(const std::string& path, std::vector<FieldInfo>&)>
      describe;
  /// Must be present and, for strings and arrays, non-empty.
  bool required = false;
};

template <typename T>
using Table = std::vector<Field<T>>;

template <typename T>
void read_block(const Table<T>& table, T& out, const Json& obj,
                const std::string& path) {
  if (!obj.is_object()) fail(path, "must be an object, got " + shown(obj));
  for (const auto& [key, value] : obj.members()) {
    const auto row =
        std::find_if(table.begin(), table.end(),
                     [&](const Field<T>& f) { return key == f.key; });
    if (row == table.end()) fail(join(path, key), "unknown key");
    row->read(out, value, join(path, key));
  }
  for (const Field<T>& f : table) {
    if (!f.required) continue;
    const Json* v = obj.find(f.key);
    if (v == nullptr || (v->is_string() && v->as_string().empty()) ||
        (v->is_array() && v->items().empty())) {
      fail(join(path, f.key), "is required and must not be empty");
    }
  }
}

template <typename T>
Json write_block(const Table<T>& table, const T& in) {
  Json obj = Json::object();
  for (const Field<T>& f : table) {
    if (std::optional<Json> v = f.write(in)) obj.set(f.key, std::move(*v));
  }
  return obj;
}

template <typename T>
void describe_block(const Table<T>& table, const std::string& path,
                    std::vector<FieldInfo>& out) {
  for (const Field<T>& f : table) f.describe(join(path, f.key), out);
}

/// The member type an accessor (member pointer or `auto&(auto&)` lambda)
/// reaches in a T.
template <typename T, typename A>
using Member = std::remove_cvref_t<std::invoke_result_t<A, T&>>;

/// A numeric leaf: the member holds `scale` x the JSON value (bytes per
/// GiB, picoseconds per ns, ...).
template <typename T, typename A>
Field<T> number(const char* key, A member, Range r, double scale = 1.0,
                Type type = Type::kNumber) {
  using M = Member<T, A>;
  return {key,
          [=](T& t, const Json& v, const std::string& path) {
            std::invoke(member, t) =
                static_cast<M>(read_number(v, path, type, r) * scale);
          },
          [=](const T& t) -> std::optional<Json> {
            return Json::number(static_cast<double>(std::invoke(member, t)) /
                                scale);
          },
          [=](const std::string& path, std::vector<FieldInfo>& out) {
            out.push_back({path, type, r, {}});
          }};
}

/// An unsigned integer leaf, capped at the member type's maximum.
template <typename T, typename A>
Field<T> integer(const char* key, A member, double lo = 0.0,
                 double hi = kMaxInteger) {
  const double type_max = std::numeric_limits<Member<T, A>>::max();
  return number<T>(key, member, {lo, std::min(hi, type_max)}, 1.0,
                   Type::kInteger);
}

/// A time in `unit` (sim::kNanosecond, sim::kMicrosecond), held as
/// sim::Time or as a double already in that unit.  `positive` demands at
/// least one picosecond.
template <typename T, typename A>
Field<T> sim_time(const char* key, A member, sim::Time unit,
                  bool positive = false) {
  const double ps = static_cast<double>(unit);
  const Range r{positive ? 1.0 / ps : 0.0, kMaxTimePs / ps};
  return number<T>(key, member, r,
                   std::is_same_v<Member<T, A>, double> ? 1.0 : ps);
}

template <typename T>
Field<T> flag(const char* key, std::function<bool(const T&)> get,
              std::function<void(T&, bool)> set) {
  return {key,
          [=](T& t, const Json& v, const std::string& path) {
            if (!v.is_bool()) fail(path, "must be a boolean, got " + shown(v));
            set(t, v.as_bool());
          },
          [=](const T& t) -> std::optional<Json> {
            return Json::boolean(get(t));
          },
          [=](const std::string& path, std::vector<FieldInfo>& out) {
            out.push_back({path, Type::kBool, {}, {}});
          }};
}

/// A string leaf; non-empty `choices` lists the accepted values.
template <typename T>
Field<T> text(const char* key, std::vector<std::string> choices,
              std::function<std::string(const T&)> get,
              std::function<void(T&, const std::string&)> set) {
  return {key,
          [=](T& t, const Json& v, const std::string& path) {
            if (!v.is_string()) fail(path, "must be a string, got " + shown(v));
            if (!choices.empty() &&
                std::find(choices.begin(), choices.end(), v.as_string()) ==
                    choices.end()) {
              std::string list;
              for (const std::string& c : choices) {
                list += (list.empty() ? "\"" : ", \"") + c + "\"";
              }
              fail(path, "must be one of " + list + ", got " + shown(v));
            }
            set(t, v.as_string());
          },
          [=](const T& t) -> std::optional<Json> {
            return Json::string(get(t));
          },
          [=](const std::string& path, std::vector<FieldInfo>& out) {
            out.push_back({path, Type::kString, {}, choices});
          }};
}

template <typename T, typename A>
Field<T> text(const char* key, A member,
              std::vector<std::string> choices = {}) {
  return text<T>(
      key, std::move(choices),
      [member](const T& t) { return std::invoke(member, t); },
      [member](T& t, const std::string& s) { std::invoke(member, t) = s; });
}

/// An enum leaf written as its to_string() name.  A std::optional member
/// also accepts "" for "unset".
template <typename T, typename A, typename E>
Field<T> choice(const char* key, A member, std::initializer_list<E> list) {
  constexpr bool kOptional = !std::is_same_v<Member<T, A>, E>;
  std::vector<std::string> names;
  if (kOptional) names.emplace_back();
  const std::vector<E> values(list);
  for (const E e : values) names.emplace_back(to_string(e));
  return text<T>(
      key, names,
      [member](const T& t) -> std::string {
        const auto& m = std::invoke(member, t);
        if constexpr (kOptional) {
          return m.has_value() ? to_string(*m) : "";
        } else {
          return to_string(m);
        }
      },
      [member, values](T& t, const std::string& s) {
        auto& m = std::invoke(member, t);
        if constexpr (kOptional) m.reset();  // "" matches no value
        for (const E e : values) {
          if (s == to_string(e)) m = e;
        }
      });
}

/// A nested object with its own table; `present` false omits it from the
/// dump.
template <typename T, typename A, typename B>
Field<T> block(const char* key, A member, const Table<B>& table,
               std::function<bool(const T&)> present = nullptr) {
  return {key,
          [member, &table](T& t, const Json& v, const std::string& path) {
            read_block(table, std::invoke(member, t), v, path);
          },
          [member, &table, present](const T& t) -> std::optional<Json> {
            if (present && !present(t)) return std::nullopt;
            return write_block(table, std::invoke(member, t));
          },
          [&table](const std::string& path, std::vector<FieldInfo>& out) {
            describe_block(table, path, out);
          }};
}

/// An array; `element` reads each item into a default-constructed value.
template <typename T, typename A, typename E>
Field<T> array(const char* key, A member, Field<E> element) {
  return {key,
          [=](T& t, const Json& v, const std::string& path) {
            if (!v.is_array()) fail(path, "must be an array, got " + shown(v));
            for (std::size_t i = 0; i < v.items().size(); ++i) {
              element.read(std::invoke(member, t).emplace_back(), v.items()[i],
                           path + "[" + std::to_string(i) + "]");
            }
          },
          [=](const T& t) -> std::optional<Json> {
            Json arr = Json::array();
            for (const E& e : std::invoke(member, t)) {
              arr.push(*element.write(e));
            }
            return arr;
          },
          [=](const std::string& path, std::vector<FieldInfo>& out) {
            element.describe(path + "[]", out);
          }};
}

/// An array of objects, each read against `table`.
template <typename T, typename A, typename B>
Field<T> list(const char* key, A member, const Table<B>& table) {
  return array<T>(key, member, block<B>("", std::identity{}, table));
}

/// An array of unsigned integers, each in [lo, hi].
template <typename T, typename A>
Field<T> integers(const char* key, A member, double lo,
                  double hi = kMaxInteger) {
  using E = typename Member<T, A>::value_type;
  return array<T>(key, member, integer<E>("", std::identity{}, lo, hi));
}

template <typename T>
Field<T> required(Field<T> f) {
  f.required = true;
  return f;
}

constexpr sim::Time kNs = sim::kNanosecond;
constexpr sim::Time kUs = sim::kMicrosecond;

const Table<mem::DramConfig>& dram_table() {
  using C = mem::DramConfig;
  static const Table<C> table = {
      number<C>("capacity_gib", &C::capacity_bytes, {1e-3, kMaxGiB},
                kBytesPerGiB),
      number<C>("bandwidth_gbyte",
                [](auto& c) -> auto& { return c.bus_bandwidth.bytes_per_sec; },
                {1e-3, kMaxGbyte}, 1e9),
      sim_time<C>("latency_ns", &C::access_latency, kNs),
  };
  return table;
}

const Table<nic::NicConfig>& nic_table() {
  using C = nic::NicConfig;
  static const Table<C> table = {
      integer<C>("window_entries", &C::window_entries, 1),
      integer<C>("latency_reserved_entries", &C::latency_reserved_entries),
      // The clock period must land on the picosecond grid.
      number<C>("fpga_clock_mhz", &C::fpga_clock_hz, {1e-3, 1e6}, 1e6),
      integer<C>("period", &C::period, 1, kMaxPeriod),
      sim_time<C>("processing_ns", &C::processing_latency, kNs),
      sim_time<C>("retry_timeout_us",
                  [](auto& c) -> auto& { return c.replay.retry_timeout; }, kUs,
                  true),
      number<C>("retry_backoff",
                [](auto& c) -> auto& { return c.replay.backoff; },
                {1, kMaxFactor}),
      integer<C>("max_retries",
                 [](auto& c) -> auto& { return c.replay.max_retries; }),
      integer<C>("detach_threshold",
                 [](auto& c) -> auto& { return c.replay.detach_threshold; }),
  };
  return table;
}

const Table<NodeDecl>& node_table() {
  using C = NodeDecl;
  static const Table<C> table = {
      text<C>("name", &C::name),
      choice<C>("role", &C::role, {Role::kBorrower, Role::kLender}),
      integer<C>("count", &C::count, 1),
      block<C>("dram", &C::dram, dram_table()),
      // Dumped resolved, so the echo shows what the role defaulted to.
      flag<C>(
          "with_nic", [](const C& n) { return n.nic_enabled(); },
          [](C& n, bool b) { n.with_nic = b; }),
      block<C>("nic", &C::nic, nic_table()),
  };
  return table;
}

const Table<net::LinkConfig>& link_table() {
  using C = net::LinkConfig;
  static const Table<C> table = {
      number<C>("bandwidth_gbit",
                [](auto& c) -> auto& { return c.bandwidth.bytes_per_sec; },
                {1e-3, kMaxGbit}, 1e9 / 8.0),
      sim_time<C>("propagation_ns", &C::propagation, kNs),
  };
  return table;
}

const Table<net::SwitchConfig>& switch_table() {
  using C = net::SwitchConfig;
  static const Table<C> table = {
      number<C>("buffer_kib", &C::buffer_bytes, {1, 1024.0 * 1024.0}, 1024.0),
      choice<C>("policy", &C::policy,
                {net::QueuePolicy::kDrop, net::QueuePolicy::kBackpressure}),
  };
  return table;
}

const Table<TopologySpec>& topology_table() {
  using C = TopologySpec;
  static const Table<C> table = {
      choice<C>("kind", &C::kind,
                {TopologyKind::kDirect, TopologyKind::kDumbbell,
                 TopologyKind::kLeafSpine}),
      block<C>("link", &C::link, link_table()),
      block<C>("trunk", &C::trunk, link_table()),
      block<C>("uplink", &C::uplink, link_table()),
      integer<C>("leaves", &C::leaves, 1),
      integer<C>("spines", &C::spines, 1),
      block<C>("switch", &C::sw, switch_table()),
  };
  return table;
}

const Table<InjectorSpec>& injector_table() {
  using C = InjectorSpec;
  static const Table<C> table = {
      integer<C>("period", &C::period, 1, kMaxPeriod),
      choice<C>("distribution", &C::dist_kind,
                {net::DistKind::kFixed, net::DistKind::kUniform,
                 net::DistKind::kExponential, net::DistKind::kLognormal,
                 net::DistKind::kPareto}),
      sim_time<C>("mean_us", &C::dist_mean_us, kUs),
      integer<C>("seed", &C::dist_seed),
  };
  return table;
}

const Table<ReservationSpec>& reservation_table() {
  using C = ReservationSpec;
  static const Table<C> table = {
      text<C>("borrower", &C::borrower),
      integer<C>("size_gib", &C::size_gib, 1, kMaxGiB),
      integer<C>("chunks", &C::chunks, 1),
      text<C>("name", &C::name),
  };
  return table;
}

const Table<WorkloadSpec>& workload_table() {
  using C = WorkloadSpec;
  static const Table<C> table = {
      text<C>("kind", &C::kind),
      text<C>("placement", &C::placement),
  };
  return table;
}

const Table<net::FlapSpec>& flap_table() {
  using C = net::FlapSpec;
  static const Table<C> table = {
      sim_time<C>("at_us", &C::start, kUs),
      sim_time<C>("for_us", &C::duration, kUs, true),
      number<C>("factor", &C::bandwidth_factor, {0, 1, false, true}),
  };
  return table;
}

/// The "kill_lender" object spells two FaultSpec members.
const Table<FaultSpec>& kill_lender_table() {
  using C = FaultSpec;
  static const Table<C> table = {
      required(text<C>("node", &C::kill_lender)),
      sim_time<C>("at_us", &C::kill_at_us, kUs),
  };
  return table;
}

const Table<FaultSpec>& faults_table() {
  using C = FaultSpec;
  static const Table<C> table = {
      number<C>("loss_rate", [](auto& f) -> auto& { return f.link.loss_rate; },
                {0, 1}),
      number<C>("corrupt_rate",
                [](auto& f) -> auto& { return f.link.corrupt_rate; }, {0, 1}),
      integer<C>("seed", [](auto& f) -> auto& { return f.link.seed; }),
      list<C>("flaps", [](auto& f) -> auto& { return f.link.flaps; },
              flap_table()),
      block<C>("kill_lender", std::identity{}, kill_lender_table(),
               [](const C& f) { return !f.kill_lender.empty(); }),
  };
  return table;
}

const Table<ChaosEventSpec>& chaos_event_table() {
  using C = ChaosEventSpec;
  static const Table<C> table = {
      sim_time<C>("at_us", &C::at_us, kUs),
      required(choice<C>("kind", &C::kind,
                         {ChaosKind::kKillSwitch, ChaosKind::kBrownoutPort,
                          ChaosKind::kGrayLender, ChaosKind::kRecover})),
      text<C>("target", &C::target),
      // The per-kind range is resolve_chaos()'s: [0, 1) for a brownout,
      // above 1 for a gray lender, 0 otherwise.
      number<C>("factor", &C::factor, {0, kMaxFactor}),
      sim_time<C>("for_us", &C::for_us, kUs),
  };
  return table;
}

const Table<ChaosSpec>& chaos_table() {
  using C = ChaosSpec;
  static const Table<C> table = {
      integer<C>("seed", &C::seed),
      list<C>("events", &C::events, chaos_event_table()),
  };
  return table;
}

const Table<DetectorSpec>& detector_table() {
  using C = DetectorSpec;
  static const Table<C> table = {
      flag<C>(
          "enabled", [](const C& d) { return d.enabled; },
          [](C& d, bool b) { d.enabled = b; }),
      number<C>("alpha", &C::alpha, {0, 1, true}),
      number<C>("latency_threshold", &C::latency_threshold,
                {1, kMaxFactor, true}),
      number<C>("timeout_weight", &C::timeout_weight, {0, kMaxFactor}),
      integer<C>("warmup", &C::warmup, 1),
      integer<C>("confirm", &C::confirm, 1),
      integer<C>("probe_interval", &C::probe_interval, 1),
      number<C>("rejoin_margin", &C::rejoin_margin, {1, kMaxFactor}),
      integer<C>("rejoin_confirm", &C::rejoin_confirm, 1),
  };
  return table;
}

const Table<TrafficTenantSpec>& tenant_table() {
  using C = TrafficTenantSpec;
  static const Table<C> table = {
      text<C>("name", &C::name),
      integer<C>("weight", &C::weight, 1),
      number<C>("rate_share", &C::rate_share, {0, 1, true}),
  };
  return table;
}

const Table<TrafficSpec>& traffic_table() {
  using C = TrafficSpec;
  static const Table<C> table = {
      text<C>("process", &C::process, {"", "poisson", "bursty", "diurnal"}),
      number<C>("rate_rps", &C::rate_rps, {0, kMaxRate}),
      integer<C>("clients", &C::clients),
      integer<C>("seed", &C::seed),
      integer<C>("max_in_flight", &C::max_in_flight),
      integer<C>("queue_depth", &C::queue_depth),
      sim_time<C>("duration_us", &C::duration_us, kUs),
      sim_time<C>("timeout_us", &C::timeout_us, kUs),
      integer<C>("req_bytes", &C::req_bytes, 0, kMaxFrame),
      integer<C>("resp_bytes", &C::resp_bytes, 0, kMaxFrame),
      sim_time<C>("burst_on_us", &C::burst_on_us, kUs, true),
      sim_time<C>("burst_off_us", &C::burst_off_us, kUs),
      sim_time<C>("diurnal_period_us", &C::diurnal_period_us, kUs, true),
      number<C>("diurnal_amplitude", &C::diurnal_amplitude, {0, 1}),
      number<C>("lender_capacity_rps", &C::lender_capacity_rps, {0, kMaxRate}),
      sim_time<C>("qos_window_us", &C::qos_window_us, kUs, true),
      number<C>("tenant_gib", &C::tenant_gib, {0, kMaxGiB}),
      integer<C>("failover_threshold", &C::failover_threshold),
      list<C>("tenants", &C::tenants, tenant_table()),
  };
  return table;
}

const Table<SloSpec>& slo_table() {
  using C = SloSpec;
  static const Table<C> table = {
      sim_time<C>("p50_us", &C::p50_us, kUs),
      sim_time<C>("p99_us", &C::p99_us, kUs),
      sim_time<C>("p999_us", &C::p999_us, kUs),
      sim_time<C>("window_us", &C::window_us, kUs, true),
  };
  return table;
}

const Table<PdesSpec>& pdes_table() {
  using C = PdesSpec;
  static const Table<C> table = {
      integer<C>("threads", &C::threads, 0, 1),
      sim_time<C>("lookahead_ns", &C::lookahead_ns, kNs),
  };
  return table;
}

const Table<SweepSpec>& sweep_table() {
  using C = SweepSpec;
  static const Table<C> table = {
      integers<C>("periods", &C::periods, 1, kMaxPeriod),
      integers<C>("lenders", &C::lenders, 1),
      integers<C>("borrowers", &C::borrowers, 1),
      integers<C>("instances", &C::instances, 1),
  };
  return table;
}

const Table<ScenarioSpec>& scenario_table() {
  using C = ScenarioSpec;
  static const Table<C> table = {
      text<C>("name", &C::name),
      text<C>("description", &C::description),
      text<C>("policy", &C::policy),
      required(list<C>("nodes", &C::nodes, node_table())),
      block<C>("topology", &C::topology, topology_table()),
      block<C>("injector", &C::injector, injector_table()),
      list<C>("reservations", &C::reservations, reservation_table()),
      list<C>("workloads", &C::workloads, workload_table()),
      block<C>("faults", &C::faults, faults_table()),
      block<C>("chaos", &C::chaos, chaos_table()),
      block<C>("detector", &C::detector, detector_table()),
      block<C>("traffic", &C::traffic, traffic_table()),
      block<C>("slo", &C::slo, slo_table()),
      block<C>("pdes", &C::pdes, pdes_table()),
      block<C>("sweep", &C::sweep, sweep_table()),
  };
  return table;
}

/// Rules spanning several fields, run once every field passed its range.
void validate(ScenarioSpec& spec) {
  try {
    // Also sorts the flaps by start, as every FaultPlan expects them.
    net::validate_flap_schedule(spec.faults.link.flaps, "faults.flaps");
    resolve_chaos(spec.chaos);
  } catch (const std::invalid_argument& e) {
    fail("", e.what());
  }
  const auto need = [](bool ok, const char* path, const std::string& msg) {
    if (!ok) fail(path, msg);
  };
  const TrafficSpec& t = spec.traffic;
  if (t.enabled()) {
    const std::string when = " when traffic.process is set";
    need(t.rate_rps > 0.0, "traffic.rate_rps", "must be > 0" + when);
    need(t.duration_us > 0.0, "traffic.duration_us", "must be > 0" + when);
    need(t.max_in_flight >= 1, "traffic.max_in_flight", "must be >= 1" + when);
    need(spec.pdes.threads >= 1, "pdes.threads",
         "must be >= 1" + when + " (serving runs on per-node calendars)");
    const bool gray = std::any_of(
        spec.chaos.events.begin(), spec.chaos.events.end(),
        [](const ChaosEventSpec& e) {
          return e.kind == ChaosKind::kGrayLender;
        });
    need(!gray || t.lender_capacity_rps > 0.0, "traffic.lender_capacity_rps",
         "must be > 0 when a chaos event is gray_lender" + when);
  }
  if (spec.topology.kind != TopologyKind::kDirect) {
    const auto declares = [&](Role role) {
      return std::any_of(spec.nodes.begin(), spec.nodes.end(),
                         [&](const NodeDecl& n) { return n.role == role; });
    };
    need(declares(Role::kBorrower) && declares(Role::kLender), "nodes",
         "a " + to_string(spec.topology.kind) +
             " topology needs at least one borrower and one lender");
  }
  if (spec.pdes.enabled()) {
    // The PDES lookahead derives from the least propagation in use.
    const TopologySpec& topo = spec.topology;
    const std::string msg = "must be > 0 when pdes.threads >= 1";
    need(topo.link.propagation > 0, "topology.link.propagation_ns", msg);
    need(topo.kind != TopologyKind::kDumbbell || topo.trunk.propagation > 0,
         "topology.trunk.propagation_ns", msg);
    need(topo.kind != TopologyKind::kLeafSpine || topo.uplink.propagation > 0,
         "topology.uplink.propagation_ns", msg);
  }
  need(spec.sweep.periods.empty() || !spec.injector.dist_kind.has_value(),
       "sweep.periods", kPeriodsNeedGate);
  const double lookahead_ns = spec.pdes.lookahead_ns;
  need(lookahead_ns == 0.0 || sim::from_ns(lookahead_ns) > 0,
       "pdes.lookahead_ns", "must be 0 (derived) or at least 0.001");
}

/// The built-ins' node declarations: `borrowers` borrowers with the FPGA
/// NIC, then `lenders` lenders without it.
std::vector<NodeDecl> borrower_and_lender(std::uint32_t borrowers,
                                          std::uint32_t lenders) {
  NodeDecl borrower;
  borrower.name = "borrower";
  borrower.role = Role::kBorrower;
  borrower.count = borrowers;
  borrower.with_nic = true;
  NodeDecl lender;
  lender.name = "lender";
  lender.count = lenders;
  lender.with_nic = false;
  return {borrower, lender};
}

}  // namespace

std::string to_string(Role role) {
  return role == Role::kBorrower ? "borrower" : "lender";
}

std::string to_string(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kDirect: return "direct";
    case TopologyKind::kDumbbell: return "dumbbell";
    case TopologyKind::kLeafSpine: return "leaf_spine";
  }
  return "?";
}

std::string to_string(ChaosKind kind) {
  switch (kind) {
    case ChaosKind::kKillSwitch: return "kill_switch";
    case ChaosKind::kBrownoutPort: return "brownout_port";
    case ChaosKind::kGrayLender: return "gray_lender";
    case ChaosKind::kRecover: return "recover";
  }
  return "?";
}

std::vector<ChaosWindow> resolve_chaos(const ChaosSpec& chaos) {
  std::vector<ChaosWindow> windows;
  std::map<std::string, std::size_t> open;     // target -> open window index
  std::map<std::string, sim::Time> last_end;   // target -> last bounded end
  const auto at_event = [](std::size_t i) {
    return "chaos event " + std::to_string(i);
  };
  // Each message leads with the path of the field at fault.
  const auto reject = [](std::size_t i, const char* field,
                         const std::string& what) {
    throw std::invalid_argument("chaos.events[" + std::to_string(i) + "]." +
                                field + ": " + what);
  };
  for (std::size_t i = 0; i < chaos.events.size(); ++i) {
    const ChaosEventSpec& ev = chaos.events[i];
    if (ev.at_us < 0.0) reject(i, "at_us", at_event(i) + ": must be >= 0");
    if (i > 0 && ev.at_us < chaos.events[i - 1].at_us) {
      reject(i, "at_us",
             "chaos events " + std::to_string(i - 1) + " and " +
                 std::to_string(i) +
                 " out of order (at_us must be non-decreasing)");
    }
    if (ev.target.empty()) {
      reject(i, "target", at_event(i) + ": target is required");
    }
    const sim::Time at = sim::from_us(ev.at_us);
    if (ev.kind == ChaosKind::kRecover) {
      if (ev.factor != 0.0 || ev.for_us != 0.0) {
        reject(i, ev.factor != 0.0 ? "factor" : "for_us",
               at_event(i) + ": recover takes no factor or for_us");
      }
      const auto it = open.find(ev.target);
      if (it == open.end()) {
        reject(i, "target",
               at_event(i) + ": recover for \"" + ev.target +
                   "\" matches no open chaos window");
      }
      ChaosWindow& w = windows[it->second];
      if (at <= w.start) {
        reject(i, "at_us",
               at_event(i) + ": recover must come strictly after the \"" +
                   ev.target + "\" window opened");
      }
      w.end = at;
      last_end[ev.target] = at;
      open.erase(it);
      continue;
    }
    switch (ev.kind) {
      case ChaosKind::kKillSwitch:
        if (ev.factor != 0.0) {
          reject(i, "factor", at_event(i) + ": kill_switch takes no factor");
        }
        break;
      case ChaosKind::kBrownoutPort:
        if (ev.factor < 0.0 || ev.factor >= 1.0) {
          reject(i, "factor",
                 at_event(i) + ": brownout_port factor must be in [0, 1)");
        }
        if (ev.target.find(':') == std::string::npos) {
          reject(i, "target",
                 at_event(i) +
                     ": brownout_port target must be \"switch:neighbor\"");
        }
        break;
      case ChaosKind::kGrayLender:
        if (ev.factor <= 1.0) {
          reject(i, "factor",
                 at_event(i) + ": gray_lender factor must be > 1 (it "
                               "inflates service latency)");
        }
        break;
      case ChaosKind::kRecover: break;  // handled above
    }
    if (ev.for_us < 0.0) reject(i, "for_us", at_event(i) + ": must be >= 0");
    if (open.count(ev.target) != 0) {
      reject(i, "target",
             at_event(i) + ": target \"" + ev.target +
                 "\" already has an open chaos window (recover it first)");
    }
    if (const auto le = last_end.find(ev.target);
        le != last_end.end() && at < le->second) {
      reject(i, "at_us",
             at_event(i) + " overlaps the previous window on \"" +
                 ev.target + "\"");
    }
    ChaosWindow w;
    w.kind = ev.kind;
    w.target = ev.target;
    w.start = at;
    w.end = sim::kTimeNever;
    w.factor = ev.factor;
    if (ev.for_us > 0.0) {
      w.end = at + sim::from_us(ev.for_us);
      last_end[ev.target] = w.end;
    } else {
      open[ev.target] = windows.size();
    }
    windows.push_back(std::move(w));
  }
  return windows;
}

const NodeDecl* ScenarioSpec::find_node(const std::string& node_name) const {
  for (const auto& n : nodes) {
    if (n.name == node_name) return &n;
  }
  return nullptr;
}

std::uint32_t ScenarioSpec::expanded_node_count() const {
  std::uint32_t total = 0;
  for (const auto& n : nodes) total += n.count;
  return total;
}

void ScenarioSpec::set_lender_count(std::uint32_t count) {
  for (auto& n : nodes) {
    if (n.role == Role::kLender) n.count = count;
  }
}

void ScenarioSpec::set_borrower_count(std::uint32_t count) {
  for (auto& n : nodes) {
    if (n.role == Role::kBorrower) n.count = count;
  }
}

ScenarioSpec from_json(const Json& doc) {
  ScenarioSpec spec;
  read_block(scenario_table(), spec, doc, "");
  validate(spec);
  return spec;
}

ScenarioSpec parse(const std::string& text) {
  return from_json(Json::parse(text));
}

ScenarioSpec load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("scenario: cannot open " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    return parse(buf.str());
  } catch (const JsonError& e) {
    throw JsonError(path + ": " + e.what());
  }
}

Json to_json(const ScenarioSpec& spec) {
  return write_block(scenario_table(), spec);
}

std::string resolved_json(const ScenarioSpec& spec) {
  return to_json(spec).dump() + "\n";
}

std::vector<FieldInfo> schema() {
  std::vector<FieldInfo> out;
  describe_block(scenario_table(), "", out);
  return out;
}

ScenarioSpec paper_two_node() {
  ScenarioSpec spec;
  spec.name = "paper-twonode";
  spec.description =
      "The paper's two-node ThymesisFlow prototype: one borrower, one "
      "lender, 100 Gb/s point-to-point cable, 16 GiB borrowed";
  spec.nodes = borrower_and_lender(1, 1);
  spec.reservations.push_back(ReservationSpec{});
  spec.workloads.push_back(WorkloadSpec{});
  return spec;
}

ScenarioSpec pooling_1xN(std::uint32_t lenders) {
  ScenarioSpec spec;
  spec.name = "pooling-1xN";
  spec.description =
      "One borrower pooling remote memory striped across N equal lenders "
      "(most-free placement round-robins the chunks)";
  spec.nodes = borrower_and_lender(1, lenders);
  spec.policy = "most-free";
  ReservationSpec res;
  res.size_gib = 16;
  res.chunks = lenders;
  res.name = "pooled";
  spec.reservations.push_back(res);
  spec.workloads.push_back(WorkloadSpec{"flow", "remote"});
  spec.sweep.lenders = {1, 2, 4, 8};
  spec.sweep.periods = {1, 10, 100};
  return spec;
}

ScenarioSpec shared_trunk(std::uint32_t borrowers) {
  ScenarioSpec spec;
  spec.name = "shared-trunk";
  spec.description =
      "M borrower-lender pairs on a two-switch dumbbell sharing one trunk "
      "-- M:1 oversubscription, the congestion the paper emulates";
  spec.nodes = borrower_and_lender(borrowers, borrowers);
  spec.topology.kind = TopologyKind::kDumbbell;
  spec.policy = "most-free";
  ReservationSpec res;
  res.size_gib = 4;
  res.name = "trunk-share";
  spec.reservations.push_back(res);
  spec.workloads.push_back(WorkloadSpec{"flow", "remote"});
  spec.sweep.borrowers = {1, 2, 4, 8};
  spec.sweep.periods = {1};
  return spec;
}

ScenarioSpec leafspine_rack(std::uint32_t borrowers) {
  ScenarioSpec spec;
  spec.name = "leafspine-rack";
  spec.description =
      "M borrower-lender pairs across a 2-tier leaf/spine fabric; partners "
      "sit on different leaves so every access ECMP-stripes over the spines "
      "-- the contention cliff moves out by the spine count vs one trunk";
  spec.nodes = borrower_and_lender(borrowers, borrowers);
  spec.topology.kind = TopologyKind::kLeafSpine;
  spec.topology.leaves = 8;
  spec.topology.spines = 4;
  spec.topology.uplink = spec.topology.link;
  spec.policy = "most-free";
  ReservationSpec res;
  res.size_gib = 4;
  res.name = "rack-share";
  spec.reservations.push_back(res);
  spec.workloads.push_back(WorkloadSpec{"flow", "remote"});
  spec.sweep.borrowers = {16, 32, 64, 128, 256};
  spec.sweep.periods = {1};
  spec.pdes.threads = 1;
  return spec;
}

ScenarioSpec serving_diurnal() {
  ScenarioSpec spec;
  spec.name = "serving-diurnal";
  spec.description =
      "Redis-style serving tier on the 8x4 leaf/spine rack: two tenants "
      "(3:1 QoS weights) offer a diurnal open-loop load against p50/p99/p999 "
      "SLOs; lender0 is killed at mid-cycle, forcing both tenants onto the "
      "survivor where credit-based QoS arbitrates the crunch";
  spec.nodes = borrower_and_lender(8, 2);
  spec.topology.kind = TopologyKind::kLeafSpine;
  spec.topology.leaves = 8;
  spec.topology.spines = 4;
  spec.policy = "slo-aware";
  spec.workloads.push_back(WorkloadSpec{"openloop", "remote"});
  spec.pdes.threads = 1;

  spec.traffic.process = "diurnal";
  spec.traffic.rate_rps = 1.2e6;
  spec.traffic.clients = 2'000'000;
  spec.traffic.seed = 20260808;
  spec.traffic.duration_us = 20'000.0;   // one diurnal cycle
  spec.traffic.diurnal_period_us = 20'000.0;
  spec.traffic.diurnal_amplitude = 0.6;
  spec.traffic.timeout_us = 200.0;
  spec.traffic.lender_capacity_rps = 1.5e6;
  spec.traffic.qos_window_us = 100.0;
  spec.traffic.tenants.push_back(TrafficTenantSpec{"frontend", 3, 0.75});
  spec.traffic.tenants.push_back(TrafficTenantSpec{"batch", 1, 0.25});

  spec.slo.p50_us = 10.0;
  spec.slo.p99_us = 40.0;
  spec.slo.p999_us = 120.0;
  spec.slo.window_us = 1000.0;

  spec.faults.kill_lender = "lender0";
  spec.faults.kill_at_us = 10'000.0;  // the diurnal peak
  return spec;
}

ScenarioSpec chaos_rack() {
  ScenarioSpec spec = serving_diurnal();
  spec.name = "chaos-rack";
  spec.description =
      "Gray-failure chaos drill on the serving rack: lender0 turns gray (6x "
      "service inflation) at the ramp, a leaf0->spine1 port browns out, and "
      "spine2 is killed outright; the online health detector re-stripes and "
      "migrates sources before the timeout budget burns down";
  // Steady offered load (no diurnal swing) so every p99 excursion in the
  // bench is attributable to a chaos window, not the arrival process.  The
  // rate is sized so the gray lender stays *below* its inflated capacity:
  // a true gray failure serves every request, just slowly -- queueing
  // pushes p99 far past target while staying under the 200us timeout, so
  // the timeout-only baseline never reacts and rides out the whole window.
  spec.traffic.process = "poisson";
  spec.traffic.rate_rps = 2.0e5;
  spec.traffic.duration_us = 16'000.0;
  spec.traffic.seed = 20260808;
  spec.faults.kill_lender.clear();  // chaos timeline drives all failures
  spec.faults.kill_at_us = 0.0;

  // The bench scores each chaos event by how many SLO windows stay
  // p99-degraded; 500us windows give ~100 outcomes per window at this rate.
  // The p99 bar sits between the healthy plateau (~6us round-trips) and the
  // gray lender's queueing plateau (~25-30us), so a window is degraded for
  // exactly as long as traffic still rides the gray lender.
  spec.slo.window_us = 500.0;
  spec.slo.p99_us = 20.0;

  // 6x inflation: gray round-trips run ~5x the healthy baseline -- far
  // past latency_threshold (sick in a handful of completions) and past
  // rejoin_margin even when the lender idles under probe-only load, yet
  // comfortably inside the request timeout.
  spec.chaos.seed = 7;
  spec.chaos.events = {
      {2'000.0, ChaosKind::kGrayLender, "lender0", 6.0, 0.0},
      {6'000.0, ChaosKind::kRecover, "lender0", 0.0, 0.0},
      {8'000.0, ChaosKind::kBrownoutPort, "leaf0:spine1", 0.25, 2'000.0},
      {11'000.0, ChaosKind::kKillSwitch, "spine2", 0.0, 0.0},
      {14'000.0, ChaosKind::kRecover, "spine2", 0.0, 0.0},
  };
  spec.detector.enabled = true;
  return spec;
}

std::optional<ScenarioSpec> builtin(const std::string& name) {
  if (name == "paper_twonode") return paper_two_node();
  if (name == "pooling_1xN") return pooling_1xN();
  if (name == "trunk_contention") return shared_trunk();
  if (name == "leafspine_rack128") return leafspine_rack();
  if (name == "serving_diurnal") return serving_diurnal();
  if (name == "chaos_rack") return chaos_rack();
  return std::nullopt;
}

}  // namespace tfsim::scenario
