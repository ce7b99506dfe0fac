#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace olympian::sim {

// Power-of-two circular FIFO that keeps its buffer: the one queue behind the
// event loop's same-instant events, CondVar waiters and Channel items.
//
// Unlike std::deque, which frees and reallocates a chunk every few dozen
// items as its head advances, a ring that has reached its working size
// never touches the heap again. Growth doubles the buffer and unwraps the
// contents, so FIFO order survives a grow while the head is wrapped. The
// first push allocates; an unused ring holds no heap memory.
template <typename T>
class Ring {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  const T& front() const { return buf_[head_]; }

  void push(T v) {
    if (size_ == buf_.size()) Grow();
    buf_[(head_ + size_) & mask_] = std::move(v);
    ++size_;
  }

  T pop() {
    T v = std::move(buf_[head_]);
    head_ = (head_ + 1) & mask_;
    --size_;
    return v;
  }

 private:
  static constexpr std::size_t kInitialCapacity = 16;

  // Cold, and kept out of line so the push path inlined into every
  // schedule site stays small.
  [[gnu::noinline]] void Grow() {
    const std::size_t cap = buf_.empty() ? kInitialCapacity : buf_.size() * 2;
    std::vector<T> grown(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      grown[i] = std::move(buf_[(head_ + i) & mask_]);
    }
    buf_ = std::move(grown);
    head_ = 0;
    mask_ = cap - 1;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace olympian::sim
