// Growable byte buffer: the unit of data exchanged through the simulated
// network, DFS blocks, and shuffle segments. Byte counts from these buffers
// feed the cost model, so everything that "moves" in the simulation is
// actually serialized.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/check.hpp"

namespace asyncmr::serde {

class Buffer {
 public:
  Buffer() = default;
  explicit Buffer(std::vector<uint8_t> bytes) : bytes_(std::move(bytes)) {}

  const uint8_t* data() const { return bytes_.data(); }
  uint8_t* data() { return bytes_.data(); }
  size_t size() const { return bytes_.size(); }
  bool empty() const { return bytes_.empty(); }
  void clear() { bytes_.clear(); }
  void reserve(size_t n) { bytes_.reserve(n); }

  void Append(const void* src, size_t n) {
    const auto* p = static_cast<const uint8_t*>(src);
    bytes_.insert(bytes_.end(), p, p + n);
  }

  void AppendByte(uint8_t b) { bytes_.push_back(b); }

  /// Inserts n bytes at the front (memmove of the payload, no new buffer —
  /// lets KvWriter::Finish prepend its header without copying the stream).
  void Prepend(const void* src, size_t n) {
    const auto* p = static_cast<const uint8_t*>(src);
    bytes_.insert(bytes_.begin(), p, p + n);
  }

  std::span<const uint8_t> view() const { return {bytes_.data(), bytes_.size()}; }

  const std::vector<uint8_t>& bytes() const { return bytes_; }

  friend bool operator==(const Buffer& a, const Buffer& b) { return a.bytes_ == b.bytes_; }

 private:
  std::vector<uint8_t> bytes_;
};

}  // namespace asyncmr::serde
