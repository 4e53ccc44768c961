// Counting global allocator for benchmarks and allocation-budget tests.
// Include it from exactly one translation unit of a binary: it replaces the
// global operator new/delete, so every heap allocation — including those
// hidden inside std::function or shared_ptr — bumps alloc_count.
//
// Under AddressSanitizer the global allocator belongs to ASan: replacing it
// with raw malloc/free would strip redzones and poisoning from every heap
// object in the binary. A sanitized build (-DFTVOD_SANITIZE=address;undefined)
// therefore compiles the hooks out; kCountingAlloc is false there, the
// counters stay zero, and callers skip their allocation assertions.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define FTVOD_COUNTING_ALLOC 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FTVOD_COUNTING_ALLOC 0
#endif
#endif
#ifndef FTVOD_COUNTING_ALLOC
#define FTVOD_COUNTING_ALLOC 1
#endif

namespace ftvod::testing {
inline constexpr bool kCountingAlloc = FTVOD_COUNTING_ALLOC != 0;
inline std::uint64_t alloc_count = 0;  // calls to operator new
inline std::uint64_t alloc_bytes = 0;  // bytes requested through it
}  // namespace ftvod::testing

#if FTVOD_COUNTING_ALLOC
// GCC sees malloc() behind operator new and free() behind operator delete
// and reports them as mismatched; the pairing is correct by design.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t n) {
  ++ftvod::testing::alloc_count;
  ftvod::testing::alloc_bytes += n;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  ++ftvod::testing::alloc_count;
  ftvod::testing::alloc_bytes += n;
  const auto align = static_cast<std::size_t>(a);
  if (void* p = std::aligned_alloc(align, (n + align - 1) / align * align)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return ::operator new(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif  // FTVOD_COUNTING_ALLOC
