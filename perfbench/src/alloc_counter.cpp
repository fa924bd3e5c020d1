// Replacement global operator new/delete that counts heap allocations and
// tracks the bytes held, so the benchmark can report allocations per
// simulator event and the peak heap of each measured unit without touching
// the library. Linked into the perfbench binary only.
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace perfbench {
extern std::atomic<std::uint64_t> g_allocations;
extern std::atomic<std::uint64_t> g_heap_live;
extern std::atomic<std::uint64_t> g_heap_peak;
}  // namespace perfbench

namespace {

void* track(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  perfbench::g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t bytes = malloc_usable_size(p);
  const std::uint64_t live =
      perfbench::g_heap_live.fetch_add(bytes, std::memory_order_relaxed) +
      bytes;
  if (live > perfbench::g_heap_peak.load(std::memory_order_relaxed))
    perfbench::g_heap_peak.store(live, std::memory_order_relaxed);
  return p;
}

void release(void* p) noexcept {
  if (p == nullptr) return;
  perfbench::g_heap_live.fetch_sub(malloc_usable_size(p),
                                   std::memory_order_relaxed);
  std::free(p);
}

void* aligned(std::size_t size, std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  return track(std::aligned_alloc(a, rounded == 0 ? a : rounded));
}

}  // namespace

void* operator new(std::size_t size) {
  return track(std::malloc(size == 0 ? 1 : size));
}
void* operator new[](std::size_t size) {
  return track(std::malloc(size == 0 ? 1 : size));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return aligned(size, align);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
