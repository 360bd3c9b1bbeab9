#include "common/buffer.h"

#include <atomic>
#include <cassert>
#include <cstring>

namespace rr {

namespace {

std::atomic<uint64_t> g_bytes_copied{0};
std::atomic<uint64_t> g_bytes_allocated{0};

}  // namespace

uint64_t Buffer::TotalBytesCopied() {
  return g_bytes_copied.load(std::memory_order_relaxed);
}

uint64_t Buffer::TotalBytesAllocated() {
  return g_bytes_allocated.load(std::memory_order_relaxed);
}

void Buffer::CountExternalCopy(size_t bytes) {
  g_bytes_copied.fetch_add(bytes, std::memory_order_relaxed);
}

Buffer Buffer::Copy(ByteSpan data) {
  MutableByteSpan fill;
  Buffer buffer = ForOverwrite(data.size(), &fill);
  if (!data.empty()) {
    std::memcpy(fill.data(), data.data(), data.size());
    g_bytes_copied.fetch_add(data.size(), std::memory_order_relaxed);
  }
  return buffer;
}

Buffer Buffer::ForOverwrite(size_t size, MutableByteSpan* fill) {
  Buffer buffer;
  if (size == 0) {
    if (fill != nullptr) *fill = MutableByteSpan{};
    return buffer;
  }
  // One allocation holding the refcount and the bytes, left uninitialized:
  // the creator overwrites every byte before the Buffer is shared.
  std::shared_ptr<uint8_t[]> storage =
      std::make_shared_for_overwrite<uint8_t[]>(size);
  g_bytes_allocated.fetch_add(size, std::memory_order_relaxed);
  if (fill != nullptr) *fill = MutableByteSpan(storage.get(), size);
  Chunk chunk;
  chunk.data = storage.get();
  chunk.size = size;
  chunk.owner = std::move(storage);
  buffer.chunks_.push_back(std::move(chunk));
  buffer.size_ = size;
  return buffer;
}

Buffer Buffer::Adopt(Bytes&& data) {
  Buffer buffer;
  if (data.empty()) return buffer;
  auto storage = std::make_shared<Bytes>(std::move(data));
  Chunk chunk;
  chunk.data = storage->data();
  chunk.size = storage->size();
  chunk.owner = std::move(storage);
  buffer.size_ = chunk.size;
  buffer.chunks_.push_back(std::move(chunk));
  return buffer;
}

Buffer Buffer::Wrap(std::shared_ptr<const Bytes> storage) {
  Buffer buffer;
  if (storage == nullptr || storage->empty()) return buffer;
  Chunk chunk;
  chunk.data = storage->data();
  chunk.size = storage->size();
  chunk.owner = std::move(storage);
  buffer.size_ = chunk.size;
  buffer.chunks_.push_back(std::move(chunk));
  return buffer;
}

Buffer Buffer::Slice(size_t offset, size_t length) const {
  Buffer out;
  if (offset >= size_) return out;
  length = std::min(length, size_ - offset);
  if (length == 0) return out;
  size_t skipped = 0;
  for (const Chunk& chunk : chunks_) {
    if (length == 0) break;
    if (skipped + chunk.size <= offset) {
      skipped += chunk.size;
      continue;
    }
    const size_t begin = offset > skipped ? offset - skipped : 0;
    const size_t take = std::min(chunk.size - begin, length);
    Chunk piece;
    piece.owner = chunk.owner;
    piece.data = chunk.data + begin;
    piece.size = take;
    out.chunks_.push_back(std::move(piece));
    out.size_ += take;
    length -= take;
    skipped += chunk.size;
    offset = skipped;  // subsequent chunks are taken from their start
  }
  return out;
}

void Buffer::Append(const Buffer& other) {
  if (&other == this) {
    // Self-append: insert's source iterators would be invalidated by the
    // destination's reallocation; duplicate the chunk list first.
    const std::vector<Chunk> copy = chunks_;
    chunks_.insert(chunks_.end(), copy.begin(), copy.end());
    size_ += size_;
    return;
  }
  chunks_.insert(chunks_.end(), other.chunks_.begin(), other.chunks_.end());
  size_ += other.size_;
}

ByteSpan Buffer::Flat() const {
  assert(IsFlat());
  if (chunks_.empty()) return {};
  return {chunks_.front().data, chunks_.front().size};
}

void Buffer::CopyTo(MutableByteSpan out) const {
  assert(out.size() == size_);
  size_t offset = 0;
  for (const Chunk& chunk : chunks_) {
    // memcpy requires non-null pointers even for n=0; zero-length chunks
    // (and an empty destination's null data()) are legal on the data plane.
    if (chunk.size == 0) continue;
    std::memcpy(out.data() + offset, chunk.data, chunk.size);
    offset += chunk.size;
  }
  g_bytes_copied.fetch_add(size_, std::memory_order_relaxed);
}

Bytes Buffer::ToBytes() const {
  Bytes out(size_);
  if (size_ != 0) CopyTo(out);
  return out;
}

std::string Buffer::ToString() const {
  std::string out;
  out.reserve(size_);
  for (const Chunk& chunk : chunks_) {
    out.append(reinterpret_cast<const char*>(chunk.data), chunk.size);
  }
  g_bytes_copied.fetch_add(size_, std::memory_order_relaxed);
  return out;
}

long Buffer::storage_use_count() const {
  if (chunks_.empty()) return 0;
  return chunks_.front().owner.use_count();
}

void BufferView::Append(ByteSpan span) {
  if (span.empty()) return;
  segments_.push_back(span);
  size_ += span.size();
}

void BufferView::Append(const Buffer& buffer) {
  for (size_t i = 0; i < buffer.chunk_count(); ++i) Append(buffer.chunk(i));
}

void BufferView::Append(const BufferView& other) {
  for (const ByteSpan segment : other.segments_) Append(segment);
}

BufferView BufferView::Slice(size_t offset, size_t length) const {
  BufferView out;
  if (offset >= size_) return out;
  length = std::min(length, size_ - offset);
  size_t skipped = 0;
  for (const ByteSpan segment : segments_) {
    if (length == 0) break;
    if (skipped + segment.size() <= offset) {
      skipped += segment.size();
      continue;
    }
    const size_t begin = offset > skipped ? offset - skipped : 0;
    const size_t take = std::min(segment.size() - begin, length);
    out.Append(segment.subspan(begin, take));
    length -= take;
    skipped += segment.size();
    offset = skipped;
  }
  return out;
}

ByteSpan BufferView::Flat() const {
  assert(IsFlat());
  if (segments_.empty()) return {};
  return segments_.front();
}

void BufferView::CopyTo(MutableByteSpan out) const {
  assert(out.size() == size_);
  size_t offset = 0;
  for (const ByteSpan segment : segments_) {
    // As in Buffer::CopyTo: memcpy rejects null pointers even for n=0, and
    // zero-length segments carry a null data().
    if (segment.empty()) continue;
    std::memcpy(out.data() + offset, segment.data(), segment.size());
    offset += segment.size();
  }
  g_bytes_copied.fetch_add(size_, std::memory_order_relaxed);
}

Bytes BufferView::ToBytes() const {
  Bytes out(size_);
  if (size_ != 0) CopyTo(out);
  return out;
}

std::string BufferView::ToString() const {
  std::string out;
  out.reserve(size_);
  for (const ByteSpan segment : segments_) {
    out.append(reinterpret_cast<const char*>(segment.data()), segment.size());
  }
  g_bytes_copied.fetch_add(size_, std::memory_order_relaxed);
  return out;
}

}  // namespace rr
