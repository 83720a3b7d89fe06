// Binary trace files (version 2, mmap-able).
//
// Generated workloads can be captured to disk and replayed, which (a) lets
// expensive generator configurations be reused across schemes and (b)
// matches the trace-driven workflow of gem5/NVMain-style studies. The
// format is designed so replays of 10^8+ accesses never touch a parser:
// fixed-width records behind a self-describing header, memory-mapped and
// consumed in place by MappedTrace.
//
// On-disk layout (all fields little-endian; DESIGN.md §9):
//
//   offset  size  field
//   0       8     magic "NVMTRACE"
//   8       4     u32 version (2)
//   12      4     u32 record size in bytes (24)
//   16      8     u64 record count
//   24      8     u64 reserved (0)
//   32      24*n  records: { u64 addr, u64 value, u8 op, u8 pad[7] }
//
// Record offsets are 8-byte aligned (header 32 B, records 24 B), op is
// 0 = read, 1 = write, and the pad bytes are written as zero. The header
// carries the record size so a reader can reject a file whose layout it
// does not understand instead of silently misparsing it.
//
// One codec: TraceWriter is the only encoder and MappedTrace the only
// decoder and validator. write_trace and read_trace are conveniences over
// them, so traces are read from regular files only.
#pragma once

#include <string>
#include <vector>

#include "trace/access.hpp"

namespace nvmenc {

/// Current binary trace format version.
inline constexpr u32 kTraceVersion = 2;
/// Bytes per record ({u64 addr, u64 value, u8 op, 7 pad}).
inline constexpr usize kTraceRecordBytes = 24;
/// Bytes of the file header.
inline constexpr usize kTraceHeaderBytes = 32;

/// Writes the full access vector through a TraceWriter; throws
/// std::runtime_error naming the file on I/O failure.
void write_trace(const std::string& path, const std::vector<MemAccess>& trace);

/// Copies every record of a MappedTrace of `path` into memory, so it
/// rejects exactly what MappedTrace rejects. For large traces use
/// MappedTrace directly, which reads nothing up front.
[[nodiscard]] std::vector<MemAccess> read_trace(const std::string& path);

/// Streaming writer for traces too large to materialize as a vector: the
/// header is written with a zero count up front, records are appended
/// through a buffered stream, and close() seeks back to patch the count.
/// A file abandoned before close() therefore reads back as empty rather
/// than silently truncated at a random record.
class TraceWriter {
 public:
  explicit TraceWriter(const std::string& path);
  ~TraceWriter();
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  void append(const MemAccess& access);
  /// Patches the record count and flushes; throws on I/O failure. Called
  /// automatically by the destructor (which swallows errors — call close()
  /// explicitly when you need the failure).
  void close();

  [[nodiscard]] u64 count() const noexcept { return count_; }

 private:
  struct Impl;
  Impl* impl_;
  u64 count_ = 0;
};

/// A memory-mapped binary trace: header validated once at open, records
/// decoded on the fly straight from the page cache — no parsing, no
/// up-front read, O(1) memory regardless of trace length. The mapping is
/// read-only and shared, so many replay jobs can map one file.
class MappedTrace {
 public:
  /// Maps `path`; throws std::runtime_error naming the file and the defect
  /// on open/map failure, a path that is not a regular file, bad magic,
  /// wrong version, record-size mismatch or a file shorter than the
  /// header's record count promises.
  explicit MappedTrace(const std::string& path);
  ~MappedTrace();
  MappedTrace(MappedTrace&& other) noexcept;
  MappedTrace& operator=(MappedTrace&& other) noexcept;
  MappedTrace(const MappedTrace&) = delete;
  MappedTrace& operator=(const MappedTrace&) = delete;

  [[nodiscard]] usize size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Decodes record `i` (unchecked in release builds; i < size()).
  [[nodiscard]] MemAccess operator[](usize i) const noexcept;

 private:
  void unmap() noexcept;

  void* map_ = nullptr;
  usize map_bytes_ = 0;
  const unsigned char* records_ = nullptr;
  usize count_ = 0;
  std::string path_;
};

}  // namespace nvmenc
