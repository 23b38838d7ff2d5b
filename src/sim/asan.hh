/**
 * @file
 * AddressSanitizer hooks for storage the simulator recycles itself.
 *
 * Memory that is kept for reuse rather than freed (cached coroutine
 * frames, removed PIT slots) is invisible to ASan's heap checks, so it
 * is poisoned while unused: touching it through a stale pointer is
 * still reported.  Without ASan the hooks compile to nothing.
 */

#ifndef PRISM_SIM_ASAN_HH
#define PRISM_SIM_ASAN_HH

#include <cstddef>

#if defined(__SANITIZE_ADDRESS__)
#define PRISM_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PRISM_ASAN 1
#endif
#endif
#ifdef PRISM_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace prism {

/** Mark @p n bytes at @p p unusable until asanUnpoison. */
inline void
asanPoison([[maybe_unused]] void *p, [[maybe_unused]] std::size_t n)
{
#ifdef PRISM_ASAN
    ASAN_POISON_MEMORY_REGION(p, n);
#endif
}

/** Make @p n bytes at @p p usable again. */
inline void
asanUnpoison([[maybe_unused]] void *p, [[maybe_unused]] std::size_t n)
{
#ifdef PRISM_ASAN
    ASAN_UNPOISON_MEMORY_REGION(p, n);
#endif
}

} // namespace prism

#endif // PRISM_SIM_ASAN_HH
