// A writer of the stored layout that builds before the one stored frame
// wrote, for tests of the format floor: samples and checkpoint snapshots in
// the 20-byte SWV2 envelope, the MANIFEST snapshot as a bare SWM1 payload.
// The payloads inside are this build's (SWS2 samples, WCKP checkpoints);
// the catalog log and the checkpoint WALs were already frame logs then and
// are left as they are. DirectoryContents lets a test show that a refused
// or damaged store was left exactly as it was.

#ifndef SAMPWH_TESTS_WAREHOUSE_OLDER_LAYOUT_H_
#define SAMPWH_TESTS_WAREHOUSE_OLDER_LAYOUT_H_

#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/serialization.h"

namespace sampwh::older_layout {

/// `payload` in the SWV2 envelope: fixed32 magic "SWV2", fixed32 version
/// 2, fixed64 payload size, fixed32 CRC-32 of the payload, the payload.
inline std::string Swv2Envelope(std::string_view payload) {
  BinaryWriter writer;
  writer.PutFixed32(0x32565753);
  writer.PutFixed32(2);
  writer.PutFixed64(payload.size());
  writer.PutFixed32(Crc32(payload));
  writer.PutRaw(payload.data(), payload.size());
  return writer.Release();
}

/// Rewrites the stored files of the store directory `dir`, written by this
/// build, into the older layout: every ".sample" and ".ckpt" file in the
/// SWV2 envelope, and a "MANIFEST" snapshot bare.
inline void Rewrite(const std::string& dir) {
  std::vector<std::filesystem::path> stored;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string ext = entry.path().extension().string();
    if (entry.path().filename() == "MANIFEST" || ext == ".sample" ||
        ext == ".ckpt") {
      stored.push_back(entry.path());
    }
  }
  for (const std::filesystem::path& file : stored) {
    const std::string path = file.string();
    std::string bytes;
    ASSERT_TRUE(ReadFile(path, &bytes).ok()) << path;
    std::string_view payload;
    ASSERT_TRUE(DecodeStoredFile(bytes, path, &payload).ok()) << path;
    ASSERT_TRUE(WriteFileAtomic(path, file.filename() == "MANIFEST"
                                          ? std::string(payload)
                                          : Swv2Envelope(payload))
                    .ok())
        << path;
  }
}

/// The files of `dir` by name, with their bytes.
inline std::map<std::string, std::string> DirectoryContents(
    const std::string& dir) {
  std::map<std::string, std::string> contents;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::string bytes;
    EXPECT_TRUE(ReadFile(entry.path().string(), &bytes).ok());
    contents[entry.path().filename().string()] = std::move(bytes);
  }
  return contents;
}

}  // namespace sampwh::older_layout

#endif  // SAMPWH_TESTS_WAREHOUSE_OLDER_LAYOUT_H_
