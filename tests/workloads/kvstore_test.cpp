#include "workloads/kvstore/kvstore.hpp"

#include <gtest/gtest.h>

#include "node/cluster.hpp"
#include "workloads/kvstore/memtier.hpp"
#include "workloads/kvstore/resp.hpp"

namespace tfsim::workloads::kv {
namespace {

// --- RESP codec -----------------------------------------------------------

TEST(RespTest, EncodeCommand) {
  EXPECT_EQ(resp_encode_command({"GET", "k1"}),
            "*2\r\n$3\r\nGET\r\n$2\r\nk1\r\n");
}

TEST(RespTest, EncodeReplies) {
  EXPECT_EQ(resp_encode_simple("OK"), "+OK\r\n");
  EXPECT_EQ(resp_encode_error("ERR nope"), "-ERR nope\r\n");
  EXPECT_EQ(resp_encode_bulk("abc"), "$3\r\nabc\r\n");
  EXPECT_EQ(resp_encode_null(), "$-1\r\n");
  EXPECT_EQ(resp_encode_integer(-7), ":-7\r\n");
}

TEST(RespTest, ParseRoundTrip) {
  const auto wire = resp_encode_command({"SET", "key", "some value"});
  const auto parsed = resp_parse_command(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->parts,
            (std::vector<std::string>{"SET", "key", "some value"}));
  EXPECT_EQ(parsed->consumed, wire.size());
}

TEST(RespTest, ParseHandlesBinaryValues) {
  std::string binary = "a\r\nb\0c";
  binary += '\x01';
  const auto wire = resp_encode_command({"SET", "k", binary});
  const auto parsed = resp_parse_command(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->parts[2], binary);
}

TEST(RespTest, IncompleteInputReturnsNulloptWithoutError) {
  const auto wire = resp_encode_command({"GET", "key"});
  std::string error;
  for (std::size_t cut = 1; cut < wire.size(); ++cut) {
    error.clear();
    const auto parsed = resp_parse_command(wire.substr(0, cut), &error);
    EXPECT_FALSE(parsed.has_value()) << "cut=" << cut;
    EXPECT_TRUE(error.empty()) << "incomplete is not malformed, cut=" << cut;
  }
}

TEST(RespTest, MalformedInputsSetError) {
  std::string error;
  EXPECT_FALSE(resp_parse_command("PING\r\n", &error).has_value());
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(resp_parse_command("*1\r\n:5\r\n", &error).has_value());
  EXPECT_FALSE(error.empty()) << "array element must be a bulk string";
  error.clear();
  EXPECT_FALSE(resp_parse_command("*1\r\n$3\r\nabcXX", &error).has_value());
  EXPECT_FALSE(error.empty()) << "missing CRLF after bulk";
}

TEST(RespTest, TrailingBytesReported) {
  const auto wire = resp_encode_command({"GET", "k"}) + "extra";
  const auto parsed = resp_parse_command(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->consumed, wire.size() - 5);
}

// --- make_value ------------------------------------------------------------

TEST(MakeValueTest, DeterministicAndVersionSensitive) {
  const auto a = make_value("key1", 1, 64);
  EXPECT_EQ(a, make_value("key1", 1, 64));
  EXPECT_NE(a, make_value("key1", 2, 64));
  EXPECT_NE(a, make_value("key2", 1, 64));
  EXPECT_EQ(a.size(), 64u);
}

// --- KvStore ----------------------------------------------------------------

struct KvFixture {
  node::Cluster tb{scenario::paper_two_node()};
  KvStoreConfig cfg;
  KvFixture() {
    tb.attach_remote();
    cfg.buckets = 1 << 10;
    cfg.max_keys = 1 << 12;
    cfg.value_size = 256;
  }
  node::MemContext ctx() {
    return node::MemContext(tb.borrower(), node::CpuConfig{16, 100}, "kv");
  }
};

TEST(KvStoreTest, SetGetRoundTrip) {
  KvFixture f;
  KvStore store(f.tb.borrower(), f.cfg);
  auto ctx = f.ctx();
  store.set(ctx, "alpha", 41);
  store.set(ctx, "beta", 7);
  const auto got = store.get(ctx, "alpha");
  EXPECT_TRUE(got.found);
  EXPECT_EQ(got.version, 41u);
  EXPECT_EQ(got.value, make_value("alpha", 41, 256));
  EXPECT_EQ(store.size(), 2u);
}

TEST(KvStoreTest, OverwriteUpdatesVersion) {
  KvFixture f;
  KvStore store(f.tb.borrower(), f.cfg);
  auto ctx = f.ctx();
  store.set(ctx, "k", 1);
  store.set(ctx, "k", 2);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.get(ctx, "k").version, 2u);
}

TEST(KvStoreTest, MissingKeyNotFound) {
  KvFixture f;
  KvStore store(f.tb.borrower(), f.cfg);
  auto ctx = f.ctx();
  EXPECT_FALSE(store.get(ctx, "ghost").found);
}

TEST(KvStoreTest, DeleteRemoves) {
  KvFixture f;
  KvStore store(f.tb.borrower(), f.cfg);
  auto ctx = f.ctx();
  store.set(ctx, "k", 1);
  EXPECT_TRUE(store.del(ctx, "k"));
  EXPECT_FALSE(store.get(ctx, "k").found);
  EXPECT_FALSE(store.del(ctx, "k"));
  EXPECT_EQ(store.size(), 0u);
}

TEST(KvStoreTest, CollidingKeysCoexist) {
  KvFixture f;
  f.cfg.buckets = 2;  // force chains
  KvStore store(f.tb.borrower(), f.cfg);
  auto ctx = f.ctx();
  for (int i = 0; i < 100; ++i) {
    store.set(ctx, "key-" + std::to_string(i), static_cast<std::uint64_t>(i));
  }
  for (int i = 0; i < 100; ++i) {
    const auto got = store.get(ctx, "key-" + std::to_string(i));
    EXPECT_TRUE(got.found) << i;
    EXPECT_EQ(got.version, static_cast<std::uint64_t>(i));
  }
}

TEST(KvStoreTest, MaxKeysEnforced) {
  KvFixture f;
  f.cfg.max_keys = 4;
  KvStore store(f.tb.borrower(), f.cfg);
  auto ctx = f.ctx();
  for (int i = 0; i < 4; ++i) {
    // Appended piecewise: gcc 12 at -O3 flags `"k" + std::to_string(i)`
    // with a false -Wrestrict.
    std::string key = "k";
    key += std::to_string(i);
    store.set(ctx, key, 1);
  }
  EXPECT_THROW(store.set(ctx, "k4", 1), std::runtime_error);
}

TEST(KvStoreTest, BucketsMustBePowerOfTwo) {
  KvFixture f;
  f.cfg.buckets = 1000;
  EXPECT_THROW(KvStore(f.tb.borrower(), f.cfg), std::invalid_argument);
}

TEST(KvStoreTest, GetTouchesMoreMemoryThanMiss) {
  KvFixture f;
  KvStore store(f.tb.borrower(), f.cfg);
  auto ctx = f.ctx();
  store.set(ctx, "k", 1);
  const auto before = ctx.stats().accesses;
  store.get(ctx, "k");
  const auto hit_accesses = ctx.stats().accesses - before;
  // Hit touches: aux + bucket + entry + value lines.
  EXPECT_GE(hit_accesses, 2u + f.cfg.value_size / 128);
}

// --- Memtier -----------------------------------------------------------------

MemtierConfig small_load() {
  MemtierConfig cfg;
  cfg.threads = 2;
  cfg.connections = 5;
  cfg.requests_per_client = 20;
  cfg.key_space = 200;
  return cfg;
}

TEST(MemtierTest, RunsAndValidates) {
  KvFixture f;
  KvStore store(f.tb.borrower(), f.cfg);
  Memtier memtier(f.tb.borrower(), store, small_load());
  const auto res = memtier.run();
  EXPECT_EQ(res.requests, 2u * 5u * 20u);
  EXPECT_EQ(res.gets + res.sets, res.requests);
  EXPECT_TRUE(res.validated) << "every GET matched the oracle";
  EXPECT_GT(res.ops_per_sec, 0.0);
  EXPECT_GT(res.populate_elapsed, 0u);
  EXPECT_EQ(res.hits, res.gets) << "populated keyspace: all GETs hit";
}

TEST(MemtierTest, LatencyIncludesRttAndQueueing) {
  KvFixture f;
  KvStore store(f.tb.borrower(), f.cfg);
  auto cfg = small_load();
  Memtier memtier(f.tb.borrower(), store, cfg);
  const auto res = memtier.run();
  EXPECT_GE(res.latency_us.min(),
            sim::to_us(cfg.netstack.client_rtt) - 1e-6)
      << "latency can never be below the network RTT";
  // 10 closed-loop connections on one server: mean latency ~ conns x service.
  EXPECT_GT(res.latency_us.mean(), res.avg_service_us * 5);
}

TEST(MemtierTest, SetRatioRespected) {
  KvFixture f;
  KvStore store(f.tb.borrower(), f.cfg);
  auto cfg = small_load();
  cfg.requests_per_client = 100;
  cfg.set_percent = 30;
  Memtier memtier(f.tb.borrower(), store, cfg);
  const auto res = memtier.run();
  const double ratio = static_cast<double>(res.sets) /
                       static_cast<double>(res.requests);
  EXPECT_NEAR(ratio, 0.30, 0.05);
}

TEST(MemtierTest, NoPopulateMeansMisses) {
  KvFixture f;
  KvStore store(f.tb.borrower(), f.cfg);
  auto cfg = small_load();
  cfg.populate = false;
  cfg.set_percent = 0;  // pure GET of an empty store
  Memtier memtier(f.tb.borrower(), store, cfg);
  const auto res = memtier.run();
  EXPECT_EQ(res.hits, 0u);
  EXPECT_TRUE(res.validated) << "misses are the correct answer here";
}

TEST(MemtierTest, DelaySlowsServiceDown) {
  KvFixture f1;
  KvStore s1(f1.tb.borrower(), f1.cfg);
  Memtier m1(f1.tb.borrower(), s1, small_load());
  const auto base = m1.run();

  node::Cluster tb2(scenario::paper_two_node());
  tb2.set_period(1000);
  tb2.attach_remote();
  KvStoreConfig cfg2 = f1.cfg;
  KvStore s2(tb2.borrower(), cfg2);
  Memtier m2(tb2.borrower(), s2, small_load());
  const auto slow = m2.run();
  EXPECT_GT(slow.avg_service_us, base.avg_service_us * 1.2);
  EXPECT_LT(slow.avg_service_us, base.avg_service_us * 4.0)
      << "Redis stays stack-dominated (the paper's point)";
}

}  // namespace
}  // namespace tfsim::workloads::kv
