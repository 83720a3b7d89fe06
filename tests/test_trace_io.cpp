#include "trace/trace_io.hpp"

#include <gtest/gtest.h>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/rng.hpp"

namespace nvmenc {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Writes `bytes` to the temp file `name` and returns its path.
std::string temp_file(const std::string& name, const std::string& bytes) {
  const std::string path = temp_path(name);
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return path;
}

/// Writes `trace` to a temp file, lets `corrupt` mangle the raw bytes,
/// writes the result back and returns its path.
std::string corrupted_trace_file(const std::string& name,
                                 const std::vector<MemAccess>& trace,
                                 void (*corrupt)(std::string&)) {
  const std::string path = temp_path(name);
  write_trace(path, trace);
  std::string bytes;
  {
    std::ifstream in{path, std::ios::binary};
    bytes.assign(std::istreambuf_iterator<char>{in}, {});
  }
  corrupt(bytes);
  return temp_file(name, bytes);
}

std::vector<MemAccess> small_trace() {
  return {{0x40, Op::kWrite, 0xDEAD}, {0x88, Op::kRead, 0},
          {0x1000, Op::kWrite, 42}};
}

TEST(MemAccess, LineAddrAndWordIndex) {
  MemAccess a{.addr = 0x1000 + 3 * 8, .op = Op::kWrite, .value = 7};
  EXPECT_EQ(a.line_addr(), 0x1000u);
  EXPECT_EQ(a.word_index(), 3u);
  MemAccess b{.addr = 0x1040, .op = Op::kRead, .value = 0};
  EXPECT_EQ(b.line_addr(), 0x1040u);
  EXPECT_EQ(b.word_index(), 0u);
}

TEST(TraceIo, EmptyRoundTrip) {
  const std::string path = temp_path("nvmenc_empty_round_trip.bin");
  write_trace(path, {});
  EXPECT_TRUE(read_trace(path).empty());
}

TEST(TraceIo, RoundTripsRecords) {
  std::vector<MemAccess> trace;
  Xoshiro256 rng{5};
  for (int i = 0; i < 1000; ++i) {
    trace.push_back({rng.next() & ~u64{7},
                     rng.next_bool(0.5) ? Op::kWrite : Op::kRead,
                     rng.next()});
  }
  const std::string path = temp_path("nvmenc_round_trip.bin");
  write_trace(path, trace);
  const std::vector<MemAccess> back = read_trace(path);
  ASSERT_EQ(back.size(), trace.size());
  for (usize i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(back[i], trace[i]) << "record " << i;
  }
}

TEST(TraceIo, RejectsBadMagic) {
  const std::string path =
      temp_file("nvmenc_not_a_trace.bin", "NOTATRACE-file-content");
  EXPECT_THROW((void)read_trace(path), std::runtime_error);
}

TEST(TraceIo, RejectsTruncatedBody) {
  std::vector<MemAccess> trace{{0x40, Op::kWrite, 1}, {0x80, Op::kRead, 0}};
  const std::string path = corrupted_trace_file(
      "nvmenc_truncated_body.bin", trace,
      [](std::string& b) { b.resize(b.size() - 5); });
  EXPECT_THROW((void)read_trace(path), std::runtime_error);
}

TEST(TraceIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/nvmenc_trace_test.bin";
  std::vector<MemAccess> trace{{0x40, Op::kWrite, 0xDEAD},
                               {0x88, Op::kRead, 0}};
  write_trace(path, trace);
  EXPECT_EQ(read_trace(path), trace);
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW((void)read_trace(std::string{"/no/such/file.bin"}),
               std::runtime_error);
}

/// Little-endian field of `width` bytes at `offset` of a raw trace file.
u64 load_le(const std::string& bytes, usize offset, usize width) {
  u64 v = 0;
  for (usize i = 0; i < width; ++i) {
    v |= static_cast<u64>(static_cast<unsigned char>(bytes[offset + i]))
         << (8 * i);
  }
  return v;
}

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return std::string{std::istreambuf_iterator<char>{in}, {}};
}

TEST(TraceIo, FileIsHeaderPlusFixedWidthRecords) {
  // The on-disk layout of trace_io.hpp, field by field.
  const std::string path = temp_path("nvmenc_layout.bin");
  const std::vector<MemAccess> trace = small_trace();
  write_trace(path, trace);
  const std::string b = slurp(path);
  ASSERT_EQ(b.size(), kTraceHeaderBytes + 3 * kTraceRecordBytes);
  EXPECT_EQ(b.substr(0, 8), "NVMTRACE");
  EXPECT_EQ(load_le(b, 8, 4), kTraceVersion);
  EXPECT_EQ(load_le(b, 12, 4), kTraceRecordBytes);
  EXPECT_EQ(load_le(b, 16, 8), 3u);
  EXPECT_EQ(load_le(b, 24, 8), 0u);  // reserved
  for (usize i = 0; i < 3; ++i) {
    const usize rec = kTraceHeaderBytes + i * kTraceRecordBytes;
    const MemAccess& want = trace[i];
    EXPECT_EQ(load_le(b, rec, 8), want.addr) << "record " << i;
    EXPECT_EQ(load_le(b, rec + 8, 8), want.value) << "record " << i;
    EXPECT_EQ(load_le(b, rec + 16, 1), want.op == Op::kRead ? 0u : 1u)
        << "record " << i;
    EXPECT_EQ(load_le(b, rec + 17, 7), 0u) << "pad of record " << i;
  }
}

TEST(TraceIo, WriteTraceTruncatesALongerFile) {
  // Rewriting a path leaves no stale records of the longer trace behind.
  const std::string path = temp_path("nvmenc_rewrite.bin");
  std::vector<MemAccess> longer;
  for (u64 i = 0; i < 100; ++i) longer.push_back({i * 64, Op::kWrite, i});
  write_trace(path, longer);
  write_trace(path, small_trace());
  EXPECT_EQ(slurp(path).size(), kTraceHeaderBytes + 3 * kTraceRecordBytes);
  EXPECT_EQ(read_trace(path), small_trace());
}

TEST(TraceIo, WriteFailureNamesTheFile) {
  const std::string path = temp_path("nvmenc_no_such_dir/trace.bin");
  try {
    write_trace(path, small_trace());
    FAIL() << "write_trace into a missing directory did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find(path), std::string::npos)
        << "diagnostic must name the file: " << e.what();
  }
}

// ---- Corruption: every defect must fail with a clean diagnostic that
// names the file, never crash, never return a silent partial read. Both
// entry points (eager read_trace and MappedTrace) are held to it.

void expect_rejects(const std::string& path, const std::string& fragment) {
  for (const int reader : {0, 1}) {
    try {
      if (reader == 0) {
        (void)read_trace(path);
      } else {
        MappedTrace trace{path};
        (void)trace;
      }
      FAIL() << (reader == 0 ? "read_trace" : "MappedTrace")
             << " accepted corrupt file " << path;
    } catch (const std::runtime_error& e) {
      const std::string what{e.what()};
      EXPECT_NE(what.find(path), std::string::npos)
          << "diagnostic does not name the file: " << what;
      EXPECT_NE(what.find(fragment), std::string::npos)
          << "diagnostic does not name the defect (want '" << fragment
          << "'): " << what;
    }
  }
}

TEST(TraceIoCorruption, TruncatedTail) {
  const std::string path = corrupted_trace_file(
      "nvmenc_trunc.bin", small_trace(),
      [](std::string& b) { b.resize(b.size() - 5); });
  expect_rejects(path, "truncated");
}

TEST(TraceIoCorruption, TruncatedHeader) {
  const std::string path = corrupted_trace_file(
      "nvmenc_trunc_hdr.bin", small_trace(),
      [](std::string& b) { b.resize(10); });
  expect_rejects(path, "truncated header");
}

TEST(TraceIoCorruption, BadMagic) {
  const std::string path = corrupted_trace_file(
      "nvmenc_badmagic.bin", small_trace(),
      [](std::string& b) { b[0] = 'X'; });
  expect_rejects(path, "bad magic");
}

TEST(TraceIoCorruption, WrongVersion) {
  const std::string path = corrupted_trace_file(
      "nvmenc_badver.bin", small_trace(),
      [](std::string& b) { b[8] = 99; });
  expect_rejects(path, "unsupported version 99");
}

TEST(TraceIoCorruption, RecordSizeMismatch) {
  const std::string path = corrupted_trace_file(
      "nvmenc_badrec.bin", small_trace(),
      [](std::string& b) { b[12] = 23; });
  expect_rejects(path, "record size 23");
}

TEST(TraceIoCorruption, CountBeyondFile) {
  const std::string path = corrupted_trace_file(
      "nvmenc_badcount.bin", small_trace(),
      [](std::string& b) { b[16] = 100; });  // claims 100 records, holds 3
  expect_rejects(path, "truncated");
}

TEST(TraceIoCorruption, CountThatWrapsTheSizeCheck) {
  // 2^61 records of 24 bytes is 3 * 2^64 bytes, which wraps to 0: a size
  // check that multiplies would accept the 104-byte file.
  const std::string path = corrupted_trace_file(
      "nvmenc_wrapcount.bin", small_trace(), [](std::string& b) {
        b[16] = 0;
        b[23] = 0x20;
      });
  expect_rejects(path, "truncated");
}

TEST(TraceIoCorruption, NotARegularFile) {
  // Traces are mapped, so only regular files are traces; a directory is
  // named as such rather than failing later inside mmap.
  const std::string path = temp_path("nvmenc_trace_dir");
  std::filesystem::create_directories(path);
  expect_rejects(path, "not a regular file");
  std::filesystem::remove(path);
}

// ---- MappedTrace ------------------------------------------------------

TEST(MappedTrace, ReadsRecordsInPlace) {
  const std::string path = ::testing::TempDir() + "/nvmenc_mmap.bin";
  std::vector<MemAccess> trace;
  Xoshiro256 rng{11};
  for (int i = 0; i < 4096; ++i) {
    trace.push_back({rng.next() & ~u64{7},
                     rng.next_bool(0.5) ? Op::kWrite : Op::kRead,
                     rng.next()});
  }
  write_trace(path, trace);
  MappedTrace mapped{path};
  ASSERT_EQ(mapped.size(), trace.size());
  for (usize i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(mapped[i], trace[i]) << "record " << i;
  }
}

TEST(MappedTrace, EmptyTrace) {
  const std::string path = ::testing::TempDir() + "/nvmenc_mmap_empty.bin";
  write_trace(path, {});
  MappedTrace mapped{path};
  EXPECT_EQ(mapped.size(), 0u);
  EXPECT_TRUE(mapped.empty());
}

TEST(MappedTrace, MoveTransfersTheMapping) {
  const std::string path = ::testing::TempDir() + "/nvmenc_mmap_move.bin";
  write_trace(path, small_trace());
  MappedTrace a{path};
  MappedTrace b{std::move(a)};
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b[0], small_trace()[0]);
  MappedTrace c{path};
  c = std::move(b);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c[2], small_trace()[2]);
}

TEST(MappedTrace, MissingFileThrows) {
  EXPECT_THROW(MappedTrace{std::string{"/no/such/file.bin"}},
               std::runtime_error);
}

// ---- TraceWriter ------------------------------------------------------

TEST(TraceWriter, StreamsAndPatchesCount) {
  const std::string path = ::testing::TempDir() + "/nvmenc_writer.bin";
  std::vector<MemAccess> trace;
  Xoshiro256 rng{13};
  {
    TraceWriter writer{path};
    for (int i = 0; i < 1000; ++i) {
      const MemAccess a{rng.next() & ~u64{7},
                        rng.next_bool(0.5) ? Op::kWrite : Op::kRead,
                        rng.next()};
      trace.push_back(a);
      writer.append(a);
    }
    EXPECT_EQ(writer.count(), 1000u);
    writer.close();
  }
  EXPECT_EQ(read_trace(path), trace);
  MappedTrace mapped{path};
  ASSERT_EQ(mapped.size(), trace.size());
  EXPECT_EQ(mapped[999], trace[999]);
}

TEST(TraceWriter, MatchesVectorWriterByteForByte) {
  const std::string a = ::testing::TempDir() + "/nvmenc_w_vec.bin";
  const std::string b = ::testing::TempDir() + "/nvmenc_w_stream.bin";
  const std::vector<MemAccess> trace = small_trace();
  write_trace(a, trace);
  {
    TraceWriter writer{b};
    for (const MemAccess& acc : trace) writer.append(acc);
    writer.close();
  }
  EXPECT_EQ(slurp(a), slurp(b));
}

TEST(TraceWriter, FullDiskFailsLoudlyWithTheFilename) {
  // /dev/full accepts the open and fails every flush with ENOSPC — the
  // classic silent-truncation trap. The writer must name the file in the
  // diagnostic instead of producing a short capture.
  if (!std::ifstream{"/dev/full"}.good()) {
    GTEST_SKIP() << "/dev/full not available on this host";
  }
  bool threw = false;
  try {
    TraceWriter writer{"/dev/full"};
    // Push well past any stream buffer so a flush happens mid-append.
    Xoshiro256 rng{17};
    for (int i = 0; i < 100'000; ++i) {
      writer.append({rng.next() & ~u64{7}, Op::kWrite, rng.next()});
    }
    writer.close();
  } catch (const std::runtime_error& e) {
    threw = true;
    EXPECT_NE(std::string{e.what()}.find("/dev/full"), std::string::npos)
        << "diagnostic must name the file: " << e.what();
  }
  EXPECT_TRUE(threw) << "ENOSPC was swallowed";
}

TEST(TraceWriter, CloseFailureNamesTheFile) {
  if (!std::ifstream{"/dev/full"}.good()) {
    GTEST_SKIP() << "/dev/full not available on this host";
  }
  TraceWriter writer{"/dev/full"};
  // A handful of records stays inside the buffer; the failure must still
  // surface at close(), when the count patch and flush hit the device.
  try {
    for (u64 i = 0; i < 4; ++i) writer.append({i * 8, Op::kRead, 0});
    writer.close();
    FAIL() << "close() on a full disk did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("/dev/full"), std::string::npos)
        << "diagnostic must name the file: " << e.what();
  }
}

}  // namespace
}  // namespace nvmenc
