#include "src/util/env.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/testing/fault_env.h"

namespace sampwh {
namespace {

// A FaultEnv over a MemEnv, with an injector but no site armed: it must be
// indistinguishable from the Env it wraps. The MemEnv is a base listed
// first, so it is built before the FaultEnv that points at it.
struct MemEnvHolder {
  MemEnv mem;
};
class UnarmedFaultEnv : private MemEnvHolder, public FaultEnv {
 public:
  UnarmedFaultEnv() : FaultEnv(&mem, std::make_shared<FaultInjector>()) {}
};

// One conformance suite over every Env: the sample store is written once
// against this interface, so the implementations must agree on every
// status and every byte, and the test wrapper must pass them through.
template <typename T>
class EnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if constexpr (std::is_same_v<T, PosixEnv>) {
      // Per process and per test: parallel ctest runs cases concurrently.
      dir_ = (std::filesystem::temp_directory_path() /
              ("sampwh_env_" + std::to_string(::getpid()) + "_" +
               ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                 .string();
      std::filesystem::remove_all(dir_);
    } else {
      dir_ = "mem";
    }
    ASSERT_TRUE(env_.CreateDir(dir_).ok());
  }

  void TearDown() override {
    if constexpr (std::is_same_v<T, PosixEnv>) std::filesystem::remove_all(dir_);
  }

  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  // The listing of `dir_` under `prefix`, sorted by name.
  std::vector<std::pair<std::string, uint64_t>> List(
      std::string_view prefix = {}) {
    std::vector<DirEntry> entries;
    EXPECT_TRUE(env_.ListDir(dir_, &entries, prefix).ok());
    std::vector<std::pair<std::string, uint64_t>> out;
    for (const DirEntry& e : entries) out.emplace_back(e.name, e.size);
    std::sort(out.begin(), out.end());
    return out;
  }

  T env_;
  std::string dir_;
};

using EnvTypes = ::testing::Types<PosixEnv, MemEnv, UnarmedFaultEnv>;
TYPED_TEST_SUITE(EnvTest, EnvTypes);

TYPED_TEST(EnvTest, AtomicWriteReplacesAndLeavesNoTemp) {
  const std::string path = this->Path("a.sample");
  ASSERT_TRUE(this->env_.WriteFileAtomic(path, "old").ok());
  ASSERT_TRUE(this->env_.WriteFileAtomic(path, "new contents").ok());
  std::string contents;
  ASSERT_TRUE(this->env_.ReadFile(path, &contents).ok());
  EXPECT_EQ(contents, "new contents");
  EXPECT_FALSE(this->env_.FileExists(path + ".tmp"));
  using Listing = std::vector<std::pair<std::string, uint64_t>>;
  EXPECT_EQ(this->List(), (Listing{{"a.sample", 12}}));
}

TYPED_TEST(EnvTest, WritesKeepBinaryBytes) {
  const std::string path = this->Path("bin");
  const std::string payload("some\0binary\xff payload", 20);
  ASSERT_TRUE(this->env_.WriteFileAtomic(path, payload).ok());
  std::string contents;
  ASSERT_TRUE(this->env_.ReadFile(path, &contents).ok());
  EXPECT_EQ(contents, payload);
}

TYPED_TEST(EnvTest, AppendCreatesThenExtends) {
  const std::string path = this->Path("x.wal");
  EXPECT_FALSE(this->env_.FileExists(path));
  ASSERT_TRUE(this->env_.AppendFile(path, "ab").ok());
  std::string contents;
  ASSERT_TRUE(this->env_.ReadFile(path, &contents).ok());
  EXPECT_EQ(contents, "ab");
  ASSERT_TRUE(this->env_.AppendFile(path, std::string("c\0d", 3)).ok());
  ASSERT_TRUE(this->env_.ReadFile(path, &contents).ok());
  EXPECT_EQ(contents, std::string("abc\0d", 5));
}

TYPED_TEST(EnvTest, ListDirReturnsNamesAndSizes) {
  using Listing = std::vector<std::pair<std::string, uint64_t>>;
  EXPECT_TRUE(this->List().empty());
  ASSERT_TRUE(this->env_.WriteFileAtomic(this->Path("ds.1.sample"), "123").ok());
  ASSERT_TRUE(this->env_.WriteFileAtomic(this->Path("ds.2.sample"), "").ok());
  ASSERT_TRUE(this->env_.AppendFile(this->Path("ev.1.wal"), "12345").ok());
  // Files one level down are not entries of this directory.
  ASSERT_TRUE(this->env_.CreateDir(this->Path("sub")).ok());
  ASSERT_TRUE(
      this->env_.WriteFileAtomic(this->Path("sub") + "/ds.3.sample", "z").ok());
  EXPECT_EQ(this->List(), (Listing{{"ds.1.sample", 3},
                                   {"ds.2.sample", 0},
                                   {"ev.1.wal", 5}}));
  EXPECT_EQ(this->List("ds."),
            (Listing{{"ds.1.sample", 3}, {"ds.2.sample", 0}}));
  EXPECT_TRUE(this->List("nope").empty());
}

TYPED_TEST(EnvTest, RenameMovesOntoAnExistingFile) {
  const std::string from = this->Path("a");
  const std::string to = this->Path("b");
  ASSERT_TRUE(this->env_.WriteFileAtomic(from, "from").ok());
  ASSERT_TRUE(this->env_.WriteFileAtomic(to, "to").ok());
  ASSERT_TRUE(this->env_.Rename(from, to).ok());
  EXPECT_FALSE(this->env_.FileExists(from));
  std::string contents;
  ASSERT_TRUE(this->env_.ReadFile(to, &contents).ok());
  EXPECT_EQ(contents, "from");
}

TYPED_TEST(EnvTest, RenameOfAbsentFileFails) {
  const Status status =
      this->env_.Rename(this->Path("missing"), this->Path("dest"));
  EXPECT_TRUE(status.IsNotFound()) << status.ToString();
  EXPECT_FALSE(this->env_.FileExists(this->Path("dest")));
}

TYPED_TEST(EnvTest, ReadOrRemoveOfAbsentFileIsNotFound) {
  std::string contents;
  EXPECT_TRUE(this->env_.ReadFile(this->Path("missing"), &contents).IsNotFound());
  EXPECT_TRUE(this->env_.Remove(this->Path("missing")).IsNotFound());
  const std::string path = this->Path("present");
  ASSERT_TRUE(this->env_.WriteFileAtomic(path, "x").ok());
  EXPECT_TRUE(this->env_.Remove(path).ok());
  EXPECT_FALSE(this->env_.FileExists(path));
  EXPECT_TRUE(this->env_.Remove(path).IsNotFound());
}

}  // namespace
}  // namespace sampwh
