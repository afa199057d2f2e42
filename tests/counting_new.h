// Counts every allocation that goes through global operator new, so a test
// can assert what a code path allocates: nothing on a disabled span site, or
// exactly its result on a reused warm-start answer. Defines the replaceable
// global allocation functions, so include it from exactly one translation
// unit of a test binary. Relaxed atomics: the counter is only read on the
// test thread while no other thread is allocating anything counted.

#ifndef QCLUSTER_TESTS_COUNTING_NEW_H_
#define QCLUSTER_TESTS_COUNTING_NEW_H_

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {
std::atomic<long long> g_alloc_count{0};
}  // namespace

// The replacements are a matched malloc/free pair, but GCC under TSan
// attributes inlined delete expressions back to these definitions and
// reports a spurious mismatched-new-delete.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

#endif  // QCLUSTER_TESTS_COUNTING_NEW_H_
