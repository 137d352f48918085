#include "sim/task.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace tfsim::sim {
namespace {

Task simple_process(Engine& e, Time step, int n, std::vector<Time>& stamps) {
  for (int i = 0; i < n; ++i) {
    co_await delay(e, step);
    stamps.push_back(e.now());
  }
}

TEST(TaskTest, DelayAdvancesSimTime) {
  Engine e;
  std::vector<Time> stamps;
  Task t = simple_process(e, 10, 3, stamps);
  EXPECT_FALSE(t.done());
  e.run();
  EXPECT_TRUE(t.done());
  EXPECT_EQ(stamps, (std::vector<Time>{10, 20, 30}));
}

TEST(TaskTest, TasksInterleaveByTime) {
  Engine e;
  std::vector<Time> a, b;
  Task ta = simple_process(e, 10, 3, a);
  Task tb = simple_process(e, 15, 2, b);
  e.run();
  EXPECT_EQ(a, (std::vector<Time>{10, 20, 30}));
  EXPECT_EQ(b, (std::vector<Time>{15, 30}));
}

Task joiner(Engine& e, Task& inner, bool& joined, Time& when) {
  co_await inner;
  joined = true;
  when = e.now();
}

TEST(TaskTest, AwaitingATaskJoinsIt) {
  Engine e;
  std::vector<Time> stamps;
  Task inner = simple_process(e, 10, 2, stamps);
  bool joined = false;
  Time when = 0;
  Task outer = joiner(e, inner, joined, when);
  e.run();
  EXPECT_TRUE(joined);
  EXPECT_EQ(when, 20u);
}

TEST(TaskTest, AwaitingDoneTaskIsImmediate) {
  Engine e;
  std::vector<Time> stamps;
  Task inner = simple_process(e, 1, 1, stamps);
  e.run();
  ASSERT_TRUE(inner.done());
  bool joined = false;
  Time when = 0;
  Task outer = joiner(e, inner, joined, when);
  EXPECT_TRUE(joined);  // no suspension needed
}

Task throwing_process(Engine& e) {
  co_await delay(e, 5);
  throw std::runtime_error("boom");
}

TEST(TaskTest, ExceptionIsCapturedAndRethrownOnJoin) {
  Engine e;
  Task t = throwing_process(e);
  e.run();
  EXPECT_TRUE(t.done());
  EXPECT_TRUE(t.failed());
  EXPECT_THROW(t.rethrow_if_failed(), std::runtime_error);
}

TEST(TaskTest, UntilAwaiterIsReadyForPastTimes) {
  Engine e;
  e.run_until(100);
  UntilAwaiter a{e, 50};
  EXPECT_TRUE(a.await_ready());
  UntilAwaiter b{e, 150};
  EXPECT_FALSE(b.await_ready());
}

}  // namespace
}  // namespace tfsim::sim
