// Percentiles, span recording and the machine-side readings (RSS, steal
// ticks, spin probe, filesystem type, store directory sizes).

#include <sys/statfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "perfbench/src/bench.h"
#include "src/util/serialization.h"

namespace perfbench {

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(index, v.size() - 1)];
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

bool TailResolved(size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9;
}

void Tracer::Open(const std::string& name) {
  if (!enabled_) return;
  const auto now = Clock::now();
  Span span;
  span.name = name;
  span.start_ns = (now - origin_).count();
  span.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int32_t>(spans_.size() - 1));
}

void Tracer::Close() {
  if (!enabled_ || open_.empty()) return;
  spans_[open_.back()].end_ns = (Clock::now() - origin_).count();
  open_.pop_back();
}

void Tracer::Record(const char* name, Clock::time_point start,
                    Clock::time_point end, int64_t op) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.start_ns = (start - origin_).count();
  span.end_ns = (end - origin_).count();
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op;
  spans_.push_back(std::move(span));
}

sampwh::Status Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return sampwh::Status::IOError("cannot write " + path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op << "}\n";
  }
  out.flush();
  return out ? sampwh::Status::OK()
             : sampwh::Status::IOError("short write to " + path);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

uint64_t StealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t field[8] = {};
  in >> cpu;
  for (uint64_t& f : field) in >> f;
  return cpu == "cpu" ? field[7] : 0;
}

double SpinProbeSeconds() {
  // A dependent xorshift chain: one core, no memory traffic, fixed work.
  const auto start = Clock::now();
  volatile uint64_t sink = 0;
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 40'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink = x;
  (void)sink;
  return MillisBetween(start, Clock::now()) / 1e3;
}

std::string FilesystemType(const std::string& path) {
  struct statfs fs {};
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<uint64_t>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    default: break;
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%llx",
                static_cast<unsigned long long>(fs.f_type));
  return hex;
}

DirBytes ScanStoreDirectory(const std::string& dir) {
  DirBytes bytes;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    const uint64_t size = entry.file_size(ec);
    if (ec) continue;
    const auto ends_with = [&name](std::string_view suffix) {
      return name.size() >= suffix.size() &&
             name.compare(name.size() - suffix.size(), suffix.size(),
                          suffix) == 0;
    };
    if (name == "MANIFEST") {
      bytes.manifest += size;
    } else if (ends_with(".ckpt") || ends_with(".wal")) {
      bytes.checkpoints += size;
    } else {
      bytes.samples += size;
    }
  }
  return bytes;
}

std::string SerializeSample(const PartitionSample& sample) {
  sampwh::BinaryWriter writer;
  sample.SerializeTo(&writer);
  return writer.Release();
}

}  // namespace perfbench
