/**
 * @file
 * Coroutine task type used to express simulated programs.
 *
 * Each simulated processor executes its workload as a CoTask coroutine.
 * Memory accesses that miss, synchronization, and explicit delays are
 * expressed as awaitables; the coroutine suspends and the event queue
 * resumes it when the simulated operation completes.  CoTasks compose:
 * a workload may be decomposed into sub-coroutines and co_await them.
 */

#ifndef PRISM_SIM_TASK_HH
#define PRISM_SIM_TASK_HH

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <new>
#include <utility>

#include "sim/asan.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace prism {

/**
 * Recycles coroutine frames (not to be confused with os/FramePool,
 * which hands out simulated page frames).
 *
 * Nearly every simulated event creates or destroys a coroutine frame:
 * each cache miss, memory access and message handler is a CoTask or a
 * FireAndForget.  Their frames are 64-1280 bytes, and a malloc/free
 * pair per frame costs more than dispatching the event itself.  Frames
 * up to kMaxFrameBytes are rounded up to a multiple of kClassBytes and
 * cached on per-thread, per-size-class free lists instead of being
 * freed; larger ones go straight to ::operator new.
 *
 * Every block is individually allocated with ::operator new, so any
 * thread may free any block — a frame a shard worker allocated may be
 * destroyed on the coordinator and then join the coordinator's lists.
 * At most kMaxCachedPerClass blocks are kept per class and thread
 * (the rest are freed), which bounds the memory such one-way traffic
 * can strand.  A thread's lists are freed when it exits; a frame freed
 * on a thread after that goes straight to ::operator delete.
 *
 * Under AddressSanitizer, cached blocks are poisoned until reused, so
 * resuming or destroying a dead coroutine is still reported.
 */
class CoroFrameCache
{
  public:
    static constexpr std::size_t kClassBytes = 64;
    static constexpr std::size_t kMaxFrameBytes = 2048;
    static constexpr std::uint32_t kMaxCachedPerClass = 256;

    static void *
    allocate(std::size_t n)
    {
        if (n > kMaxFrameBytes)
            return ::operator new(n);
        const std::size_t c = classOf(n);
        Lists &l = lists_;
        Block *b = l.head[c];
        if (b == nullptr)
            return ::operator new(bytesOf(c));
        asanUnpoison(b, bytesOf(c));
        l.head[c] = b->next;
        --l.count[c];
        return b;
    }

    static void
    deallocate(void *p, std::size_t n) noexcept
    {
        if (n > kMaxFrameBytes) {
            ::operator delete(p, n);
            return;
        }
        const std::size_t c = classOf(n);
        Lists &l = lists_;
        if (l.state != State::Armed) [[unlikely]] {
            if (l.state == State::Drained) {
                ::operator delete(p, bytesOf(c));
                return;
            }
            arm();
        }
        if (l.count[c] >= kMaxCachedPerClass) {
            ::operator delete(p, bytesOf(c));
            return;
        }
        Block *b = static_cast<Block *>(p);
        b->next = l.head[c];
        l.head[c] = b;
        ++l.count[c];
        asanPoison(b, bytesOf(c));
    }

  private:
    static constexpr std::size_t kClasses = kMaxFrameBytes / kClassBytes;
    static_assert(kMaxFrameBytes % kClassBytes == 0);

    struct Block {
        Block *next;
    };

    enum class State : std::uint8_t { Unarmed, Armed, Drained };

    /** Trivially destructible, so access needs no TLS guard. */
    struct Lists {
        Block *head[kClasses];
        std::uint32_t count[kClasses];
        State state;
    };

    /** Frees this thread's cached blocks when the thread exits. */
    struct Drain {
        ~Drain()
        {
            Lists &l = lists_;
            for (std::size_t c = 0; c < kClasses; ++c) {
                while (Block *b = l.head[c]) {
                    asanUnpoison(b, bytesOf(c));
                    l.head[c] = b->next;
                    ::operator delete(b, bytesOf(c));
                }
                l.count[c] = 0;
            }
            l.state = State::Drained;
        }
    };

    static std::size_t
    classOf(std::size_t n)
    {
        return (n - 1) / kClassBytes;
    }

    static std::size_t
    bytesOf(std::size_t c)
    {
        return (c + 1) * kClassBytes;
    }

    /** First cached free on this thread: register the exit drain. */
    [[gnu::noinline]] static void
    arm() noexcept
    {
        thread_local Drain drain;
        (void)drain;
        lists_.state = State::Armed;
    }

    static inline thread_local Lists lists_{};
};

/**
 * Base of the coroutine promise types: their frames are allocated and
 * freed through CoroFrameCache.
 */
struct RecycledFrame {
    static void *
    operator new(std::size_t n)
    {
        return CoroFrameCache::allocate(n);
    }

    static void
    operator delete(void *p, std::size_t n) noexcept
    {
        CoroFrameCache::deallocate(p, n);
    }
};

/**
 * An eagerly-ownable, lazily-started coroutine returning void.
 *
 * Lifetime: the frame is destroyed by ~CoTask.  Because final_suspend
 * always suspends, a completed coroutine's frame stays valid until its
 * owning CoTask goes away, so `co_await subTask()` on a temporary is
 * safe (the temporary outlives the await expression).
 */
class CoTask
{
  public:
    struct promise_type;
    using Handle = std::coroutine_handle<promise_type>;

    struct promise_type : RecycledFrame {
        /** Coroutine to resume when this one finishes (nested await). */
        std::coroutine_handle<> continuation;
        /** Completion callback for root (detached-start) tasks. */
        std::function<void()> onDone;

        CoTask
        get_return_object()
        {
            return CoTask{Handle::from_promise(*this)};
        }

        std::suspend_always initial_suspend() noexcept { return {}; }

        struct FinalAwaiter {
            bool await_ready() noexcept { return false; }

            std::coroutine_handle<>
            await_suspend(Handle h) noexcept
            {
                auto &p = h.promise();
                if (p.onDone)
                    p.onDone();
                if (p.continuation)
                    return p.continuation;
                return std::noop_coroutine();
            }

            void await_resume() noexcept {}
        };

        FinalAwaiter final_suspend() noexcept { return {}; }
        void return_void() {}

        void
        unhandled_exception()
        {
            // Workload coroutines must not throw: a simulated program
            // has no simulated exception semantics to map this onto.
            panic("unhandled exception escaped a CoTask coroutine");
        }
    };

    CoTask() = default;
    explicit CoTask(Handle h) : handle_(h) {}

    CoTask(CoTask &&other) noexcept
        : handle_(std::exchange(other.handle_, {}))
    {
    }

    CoTask &
    operator=(CoTask &&other) noexcept
    {
        if (this != &other) {
            destroy();
            handle_ = std::exchange(other.handle_, {});
        }
        return *this;
    }

    CoTask(const CoTask &) = delete;
    CoTask &operator=(const CoTask &) = delete;

    ~CoTask() { destroy(); }

    /** True if this object owns a coroutine frame. */
    bool valid() const { return static_cast<bool>(handle_); }

    /** True once the coroutine has run to completion. */
    bool done() const { return !handle_ || handle_.done(); }

    /**
     * Start a root task.  @p on_done fires when the coroutine finishes
     * (typically used to count completed processors).
     */
    void
    start(std::function<void()> on_done = {})
    {
        prism_assert(handle_, "starting an empty CoTask");
        handle_.promise().onDone = std::move(on_done);
        handle_.resume();
    }

    /** Awaiting a CoTask runs it to completion, then resumes the caller. */
    auto
    operator co_await() noexcept
    {
        struct Awaiter {
            Handle h;

            bool await_ready() const noexcept { return !h || h.done(); }

            std::coroutine_handle<>
            await_suspend(std::coroutine_handle<> cont) noexcept
            {
                h.promise().continuation = cont;
                return h;
            }

            void await_resume() const noexcept {}
        };
        return Awaiter{handle_};
    }

  private:
    void
    destroy()
    {
        if (handle_) {
            handle_.destroy();
            handle_ = {};
        }
    }

    Handle handle_;
};

/**
 * A detached, eagerly-started coroutine for protocol handlers.
 *
 * The frame owns itself: it starts running as soon as the handler
 * function is called and is destroyed automatically when it finishes.
 * Use for network-message handlers and other fire-and-forget activity
 * whose completion nobody awaits directly (completion is communicated
 * through CoLatch / CoEvent / state updates instead).
 */
struct FireAndForget {
    struct promise_type : RecycledFrame {
        FireAndForget get_return_object() { return {}; }
        std::suspend_never initial_suspend() noexcept { return {}; }
        std::suspend_never final_suspend() noexcept { return {}; }
        void return_void() {}

        void
        unhandled_exception()
        {
            panic("unhandled exception escaped a FireAndForget coroutine");
        }
    };
};

/** Awaitable that resumes the coroutine after @p delay cycles. */
class DelayAwaiter
{
  public:
    DelayAwaiter(EventQueue &eq, Cycles delay) : eq_(eq), delay_(delay) {}

    bool await_ready() const noexcept { return delay_ == 0; }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        eq_.scheduleIn(delay_, [h] { h.resume(); });
    }

    void await_resume() const noexcept {}

  private:
    EventQueue &eq_;
    Cycles delay_;
};

} // namespace prism

#endif // PRISM_SIM_TASK_HH
