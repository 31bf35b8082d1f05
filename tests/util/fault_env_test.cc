#include "src/testing/fault_env.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace sampwh {
namespace {

enum class Op { kRead, kWrite, kAppend, kRemove };

constexpr Op kOps[] = {Op::kRead, Op::kWrite, Op::kAppend, Op::kRemove};
constexpr const char* kFiles[] = {"d/x.sample", "d/x.ckpt", "d/x.wal",
                                  "d/x.manifest"};

Status Do(Env& env, Op op, const std::string& path) {
  std::string contents;
  switch (op) {
    case Op::kRead:
      return env.ReadFile(path, &contents);
    case Op::kWrite:
      return env.WriteFileAtomic(path, "new bytes");
    case Op::kAppend:
      return env.AppendFile(path, "more");
    case Op::kRemove:
      return env.Remove(path);
  }
  return Status::OK();
}

std::string Contents(Env& env, const std::string& path) {
  std::string contents;
  EXPECT_TRUE(env.ReadFile(path, &contents).ok()) << path;
  return contents;
}

// Each site is reached by exactly one operation on exactly one file kind;
// an armed kIOError fails that call alone, changes nothing and crashes
// nothing.
TEST(FaultEnvTest, EachSiteIsOneCallOnOneFileKind) {
  struct Row {
    Op op;
    std::string file;
    const char* site;
  };
  const Row rows[] = {
      {Op::kRead, "d/x.sample", kFaultSiteGetRead},
      {Op::kWrite, "d/x.sample", kFaultSitePutWrite},
      {Op::kRemove, "d/x.sample", kFaultSiteDelete},
      {Op::kWrite, "d/x.ckpt", kFaultSiteCheckpointWrite},
      {Op::kRead, "d/x.ckpt", kFaultSiteCheckpointRead},
      {Op::kAppend, "d/x.wal", kFaultSiteWalAppend},
      {Op::kWrite, "d/x.wal", kFaultSiteWalTruncate},
  };
  for (const Row& row : rows) {
    for (const Op op : kOps) {
      for (const std::string file : kFiles) {
        SCOPED_TRACE(std::string(row.site) + " / " + file + " op " +
                     std::to_string(static_cast<int>(op)));
        MemEnv mem;
        ASSERT_TRUE(mem.WriteFileAtomic(file, "old").ok());
        auto injector = std::make_shared<FaultInjector>(1);
        injector->Arm(row.site, FaultKind::kIOError, /*count=*/100);
        FaultEnv env(&mem, injector);
        const bool hit = op == row.op && file == row.file;
        const Status status = Do(env, op, file);
        EXPECT_EQ(status.IsIOError(), hit) << status.ToString();
        EXPECT_EQ(status.ok(), !hit) << status.ToString();
        EXPECT_EQ(injector->FiredCount(row.site), hit ? 1u : 0u);
        EXPECT_FALSE(env.crashed());
        if (hit) {
          EXPECT_EQ(Contents(mem, file), "old");
        }
      }
    }
  }
}

TEST(FaultEnvTest, CorruptReadFlipsOneBitOfWhatWasRead) {
  MemEnv mem;
  const std::string bytes = "sample bytes on disk";
  ASSERT_TRUE(mem.WriteFileAtomic("d/x.sample", bytes).ok());
  auto injector = std::make_shared<FaultInjector>(5);
  FaultEnv env(&mem, injector);
  injector->Arm(kFaultSiteGetRead, FaultKind::kCorruptRead);
  const std::string read = Contents(env, "d/x.sample");
  ASSERT_EQ(read.size(), bytes.size());
  int flipped_bits = 0;
  for (size_t i = 0; i < bytes.size(); ++i) {
    flipped_bits += __builtin_popcount(
        static_cast<unsigned char>(read[i] ^ bytes[i]));
  }
  EXPECT_EQ(flipped_bits, 1);
  // The file itself is intact; the next read is clean.
  EXPECT_EQ(Contents(mem, "d/x.sample"), bytes);
  EXPECT_EQ(Contents(env, "d/x.sample"), bytes);
}

// A torn write publishes a prefix and crashes: every later mutating call
// fails and changes nothing until Restart(), while reads still see the
// damage.
TEST(FaultEnvTest, TornWriteCrashesUntilRestart) {
  MemEnv mem;
  ASSERT_TRUE(mem.WriteFileAtomic("d/a.sample", "0123456789").ok());
  auto injector = std::make_shared<FaultInjector>(9);
  FaultEnv env(&mem, injector);
  injector->Arm(kFaultSitePutWrite, FaultKind::kTornWrite);
  EXPECT_TRUE(env.WriteFileAtomic("d/a.sample", "ABCDEFGHIJ").IsIOError());
  EXPECT_TRUE(env.crashed());
  const std::string torn = Contents(env, "d/a.sample");
  EXPECT_GE(torn.size(), 1u);
  EXPECT_LT(torn.size(), 10u);
  EXPECT_EQ(torn, std::string("ABCDEFGHIJ").substr(0, torn.size()));

  EXPECT_TRUE(env.WriteFileAtomic("d/a.sample", "ABCDEFGHIJ").IsIOError());
  EXPECT_TRUE(env.WriteFileAtomic("d/b.manifest", "x").IsIOError());
  EXPECT_TRUE(env.AppendFile("d/c.wal", "x").IsIOError());
  EXPECT_TRUE(env.Rename("d/a.sample", "d/a.sample.quarantine").IsIOError());
  EXPECT_TRUE(env.Remove("d/a.sample").IsIOError());
  EXPECT_TRUE(env.CreateDir("d/sub").IsIOError());
  EXPECT_EQ(Contents(mem, "d/a.sample"), torn);
  EXPECT_FALSE(mem.FileExists("d/b.manifest"));
  EXPECT_FALSE(mem.FileExists("d/c.wal"));
  EXPECT_FALSE(mem.FileExists("d/a.sample.quarantine"));
  std::vector<DirEntry> entries;
  ASSERT_TRUE(env.ListDir("d", &entries, "").ok());
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_TRUE(env.FileExists("d/a.sample"));

  env.Restart();
  EXPECT_FALSE(env.crashed());
  EXPECT_EQ(Contents(env, "d/a.sample"), torn);
  ASSERT_TRUE(env.WriteFileAtomic("d/a.sample", "ABCDEFGHIJ").ok());
  EXPECT_EQ(Contents(mem, "d/a.sample"), "ABCDEFGHIJ");
}

TEST(FaultEnvTest, CrashBeforeRenameLeavesOnlyTheTemp) {
  MemEnv mem;
  ASSERT_TRUE(mem.WriteFileAtomic("d/e.1.ckpt", "old").ok());
  auto injector = std::make_shared<FaultInjector>(3);
  FaultEnv env(&mem, injector);
  injector->Arm(kFaultSiteCheckpointWrite, FaultKind::kCrashBeforeRename);
  EXPECT_TRUE(env.WriteFileAtomic("d/e.1.ckpt", "new").IsIOError());
  EXPECT_TRUE(env.crashed());
  EXPECT_EQ(Contents(mem, "d/e.1.ckpt"), "old");
  EXPECT_EQ(Contents(mem, "d/e.1.ckpt.tmp"), "new");
}

TEST(FaultEnvTest, TornAppendKeepsAPrefixAndLostAppendKeepsNothing) {
  MemEnv mem;
  ASSERT_TRUE(mem.AppendFile("d/e.1.wal", "ab").ok());
  auto injector = std::make_shared<FaultInjector>(4);
  FaultEnv env(&mem, injector);
  injector->Arm(kFaultSiteWalAppend, FaultKind::kTornWrite);
  EXPECT_TRUE(env.AppendFile("d/e.1.wal", "cdefgh").IsIOError());
  EXPECT_TRUE(env.crashed());
  const std::string torn = Contents(mem, "d/e.1.wal");
  EXPECT_GT(torn.size(), 2u);
  EXPECT_LT(torn.size(), 8u);
  EXPECT_EQ(torn, std::string("abcdefgh").substr(0, torn.size()));

  env.Restart();
  injector->Arm(kFaultSiteWalAppend, FaultKind::kCrashBeforeRename);
  EXPECT_TRUE(env.AppendFile("d/e.1.wal", "ijk").IsIOError());
  EXPECT_TRUE(env.crashed());
  EXPECT_EQ(Contents(mem, "d/e.1.wal"), torn);
}

// The callback runs at the start of every read, of any file, before the
// bytes are fetched.
TEST(FaultEnvTest, ReadCallbackRunsBeforeEveryRead) {
  MemEnv mem;
  ASSERT_TRUE(mem.WriteFileAtomic("d/x.sample", "before").ok());
  ASSERT_TRUE(mem.WriteFileAtomic("d/x.manifest", "m").ok());
  std::vector<std::string> seen;
  FaultEnv env(&mem, /*injector=*/nullptr, [&](const std::string& path) {
    seen.push_back(path);
    if (path == "d/x.sample") mem.WriteFileAtomic(path, "after");
  });
  EXPECT_EQ(Contents(env, "d/x.sample"), "after");
  EXPECT_EQ(Contents(env, "d/x.manifest"), "m");
  std::string contents;
  EXPECT_TRUE(env.ReadFile("d/missing.ckpt", &contents).IsNotFound());
  EXPECT_EQ(seen, (std::vector<std::string>{"d/x.sample", "d/x.manifest",
                                            "d/missing.ckpt"}));
}

}  // namespace
}  // namespace sampwh
