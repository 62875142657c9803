// Ring<T>: a growable FIFO over one power-of-two array, indexed from the
// front — the circular log layout of HammerSlide [Theodorakis 18]. Popping
// never moves the other items (unlike a vector), and an empty ring holds no
// heap block (unlike std::deque, which allocates on construction).
#ifndef RUMOR_COMMON_RING_H_
#define RUMOR_COMMON_RING_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace rumor {

// The array doubles when full and halves when a quarter full.
template <typename T>
class Ring {
 public:
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return buf_.size(); }
  T& operator[](size_t i) { return buf_[(head_ + i) & (buf_.size() - 1)]; }
  const T& operator[](size_t i) const {
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }
  const T& front() const { return (*this)[0]; }
  const T& back() const { return (*this)[size_ - 1]; }

  void push_back(T item) {
    if (size_ == buf_.size()) Resize(std::max<size_t>(4, 2 * buf_.size()));
    (*this)[size_++] = std::move(item);
  }
  void pop_back() { (*this)[--size_] = T(); }
  void pop_front() {
    (*this)[0] = T();
    head_ = (head_ + 1) & (buf_.size() - 1);
    if (--size_ * 4 <= buf_.size() && buf_.size() > 16) {
      Resize(buf_.size() / 2);
    }
  }

 private:
  void Resize(size_t capacity) {
    std::vector<T> next(capacity);
    for (size_t i = 0; i < size_; ++i) next[i] = std::move((*this)[i]);
    buf_.swap(next);
    head_ = 0;
  }

  std::vector<T> buf_;
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace rumor

#endif  // RUMOR_COMMON_RING_H_
