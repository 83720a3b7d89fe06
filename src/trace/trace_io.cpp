#include "trace/trace_io.hpp"

#include <array>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "common/error.hpp"

// POSIX mmap for MappedTrace. The rest of the file is portable iostream
// code; a non-POSIX port would swap only the mapping primitive.
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace nvmenc {

namespace {

constexpr std::array<char, 8> kMagic = {'N', 'V', 'M', 'T',
                                        'R', 'A', 'C', 'E'};

/// Every diagnostic names its file: "trace file <path>: <defect>".
[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw std::runtime_error("trace file " + path + ": " + what);
}

void store_u32(unsigned char* p, u32 v) {
  for (usize i = 0; i < 4; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

void store_u64(unsigned char* p, u64 v) {
  for (usize i = 0; i < 8; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

u32 load_u32(const unsigned char* p) {
  u32 v = 0;
  for (usize i = 0; i < 4; ++i) v |= static_cast<u32>(p[i]) << (8 * i);
  return v;
}

u64 load_u64(const unsigned char* p) {
  u64 v = 0;
  for (usize i = 0; i < 8; ++i) v |= static_cast<u64>(p[i]) << (8 * i);
  return v;
}

void encode_header(unsigned char (&buf)[kTraceHeaderBytes], u64 count) {
  std::memcpy(buf, kMagic.data(), kMagic.size());
  store_u32(buf + 8, kTraceVersion);
  store_u32(buf + 12, static_cast<u32>(kTraceRecordBytes));
  store_u64(buf + 16, count);
  store_u64(buf + 24, 0);  // reserved
}

void encode_record(unsigned char (&buf)[kTraceRecordBytes],
                   const MemAccess& a) {
  store_u64(buf, a.addr);
  store_u64(buf + 8, a.value);
  buf[16] = a.op == Op::kRead ? 0 : 1;
  std::memset(buf + 17, 0, 7);
}

MemAccess decode_record(const unsigned char* p) noexcept {
  MemAccess a;
  a.addr = load_u64(p);
  a.value = load_u64(p + 8);
  a.op = p[16] == 0 ? Op::kRead : Op::kWrite;
  return a;
}

/// Validates the header of a `file_bytes`-byte file, at least a header
/// long, returning the record count.
u64 validate_header(const unsigned char* buf, const std::string& path,
                    u64 file_bytes) {
  if (std::memcmp(buf, kMagic.data(), kMagic.size()) != 0) {
    fail(path, "bad magic (not an NVMTRACE file)");
  }
  const u32 version = load_u32(buf + 8);
  if (version != kTraceVersion) {
    fail(path, "unsupported version " + std::to_string(version) +
                   " (this build reads version " +
                   std::to_string(kTraceVersion) + ")");
  }
  const u32 record_bytes = load_u32(buf + 12);
  if (record_bytes != kTraceRecordBytes) {
    fail(path, "record size " + std::to_string(record_bytes) +
                   " does not match this build's format (" +
                   std::to_string(kTraceRecordBytes) + " bytes)");
  }
  const u64 count = load_u64(buf + 16);
  // Divide, never multiply: a corrupt count times the record size can
  // wrap past the file size and pass the check.
  if (count > (file_bytes - kTraceHeaderBytes) / kTraceRecordBytes) {
    fail(path, "truncated: header promises " + std::to_string(count) +
                   " records of " + std::to_string(kTraceRecordBytes) +
                   " bytes but the file holds " +
                   std::to_string(file_bytes) + " bytes");
  }
  return count;
}

}  // namespace

void write_trace(const std::string& path, const std::vector<MemAccess>& trace) {
  TraceWriter writer{path};
  for (const MemAccess& a : trace) writer.append(a);
  writer.close();
}

std::vector<MemAccess> read_trace(const std::string& path) {
  const MappedTrace mapped{path};
  std::vector<MemAccess> trace;
  trace.reserve(mapped.size());
  for (usize i = 0; i < mapped.size(); ++i) trace.push_back(mapped[i]);
  return trace;
}

// ---- TraceWriter ------------------------------------------------------

struct TraceWriter::Impl {
  std::ofstream out;
  std::string path;
  bool closed = false;
};

TraceWriter::TraceWriter(const std::string& path)
    : impl_{new Impl{std::ofstream{path, std::ios::binary}, path, false}} {
  if (!impl_->out) {
    delete impl_;
    impl_ = nullptr;
    throw std::runtime_error("cannot open trace output: " + path);
  }
  unsigned char header[kTraceHeaderBytes];
  encode_header(header, 0);  // count patched by close()
  impl_->out.write(reinterpret_cast<const char*>(header), sizeof header);
}

TraceWriter::~TraceWriter() {
  if (impl_ != nullptr && !impl_->closed) {
    try {
      close();
    } catch (...) {  // destructor swallows I/O failures by contract
    }
  }
  delete impl_;
}

void TraceWriter::append(const MemAccess& access) {
  ensure(impl_ != nullptr && !impl_->closed, "append on a closed TraceWriter");
  unsigned char rec[kTraceRecordBytes];
  encode_record(rec, access);
  impl_->out.write(reinterpret_cast<const char*>(rec), sizeof rec);
  // The stream is buffered, so a failed flush (disk full, quota, dead
  // mount) surfaces here on a later append rather than on the one that
  // overflowed the buffer — but it surfaces, with the filename, instead
  // of silently truncating the capture until close().
  if (!impl_->out) {
    throw std::runtime_error("trace write failed after " +
                             std::to_string(count_) + " records: " +
                             impl_->path + " (disk full?)");
  }
  ++count_;
}

void TraceWriter::close() {
  ensure(impl_ != nullptr && !impl_->closed, "close on a closed TraceWriter");
  impl_->closed = true;
  impl_->out.seekp(16);
  unsigned char cnt[8];
  store_u64(cnt, count_);
  impl_->out.write(reinterpret_cast<const char*>(cnt), sizeof cnt);
  impl_->out.flush();
  if (!impl_->out) {
    throw std::runtime_error("trace close failed after " +
                             std::to_string(count_) + " records: " +
                             impl_->path +
                             " (count not patched; disk full?)");
  }
}

// ---- MappedTrace ------------------------------------------------------

MappedTrace::MappedTrace(const std::string& path) : path_{path} {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) fail(path, "cannot open");
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    fail(path, "cannot stat");
  }
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    fail(path, "not a regular file");
  }
  const u64 file_bytes = static_cast<u64>(st.st_size);
  if (file_bytes < kTraceHeaderBytes) {
    ::close(fd);
    fail(path, "truncated header: " + std::to_string(file_bytes) +
                   " bytes, need " + std::to_string(kTraceHeaderBytes));
  }
  void* map = ::mmap(nullptr, file_bytes, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (map == MAP_FAILED) fail(path, "mmap failed");
  map_ = map;
  map_bytes_ = file_bytes;
  u64 count = 0;
  try {
    count = validate_header(static_cast<const unsigned char*>(map_), path,
                            file_bytes);
  } catch (...) {
    unmap();
    throw;
  }
  count_ = count;
  records_ = static_cast<const unsigned char*>(map_) + kTraceHeaderBytes;
  // Replay walks the trace front to back; tell the kernel so readahead
  // stays ahead of a 10^8-record scan.
  ::madvise(map_, map_bytes_, MADV_SEQUENTIAL);
}

MappedTrace::~MappedTrace() { unmap(); }

MappedTrace::MappedTrace(MappedTrace&& other) noexcept
    : map_{std::exchange(other.map_, nullptr)},
      map_bytes_{std::exchange(other.map_bytes_, 0)},
      records_{std::exchange(other.records_, nullptr)},
      count_{std::exchange(other.count_, 0)},
      path_{std::move(other.path_)} {}

MappedTrace& MappedTrace::operator=(MappedTrace&& other) noexcept {
  if (this != &other) {
    unmap();
    map_ = std::exchange(other.map_, nullptr);
    map_bytes_ = std::exchange(other.map_bytes_, 0);
    records_ = std::exchange(other.records_, nullptr);
    count_ = std::exchange(other.count_, 0);
    path_ = std::move(other.path_);
  }
  return *this;
}

void MappedTrace::unmap() noexcept {
  if (map_ != nullptr) {
    ::munmap(map_, map_bytes_);
    map_ = nullptr;
    map_bytes_ = 0;
    records_ = nullptr;
    count_ = 0;
  }
}

MemAccess MappedTrace::operator[](usize i) const noexcept {
  NVMENC_DCHECK(i < count_, "MappedTrace index out of range");
  return decode_record(records_ + i * kTraceRecordBytes);
}

}  // namespace nvmenc
