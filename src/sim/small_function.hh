/**
 * @file
 * A move-only, small-buffer `void()` callable for event closures. The
 * simulator schedules millions of short-lived lambdas whose captures
 * (a `this` pointer, a tick or two, a network slot index) are a few
 * words; std::function's small-buffer window (16 bytes on libstdc++)
 * would force a heap allocation per event. This type keeps
 * kInlineSize bytes of in-object storage and has no heap path at all:
 * a capture that does not fit is a compile error, so an event never
 * touches the allocator. Closures that would carry bulk state (a
 * Message, say) park it in storage their owner keeps and capture an
 * index (see Network's message slots).
 */

#ifndef TT_SIM_SMALL_FUNCTION_HH
#define TT_SIM_SMALL_FUNCTION_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace tt
{

/**
 * Type-erased move-only `void()` callable stored entirely inline.
 *
 * Dispatch goes through a static per-type vtable (invoke / relocate /
 * destroy) rather than a virtual base, so an engaged SmallFunction is
 * exactly the buffer plus one pointer (64 bytes) and relocation is a
 * move-construct + destroy pair. Targets must fit kInlineSize, be no
 * more aligned than std::max_align_t and be nothrow-movable.
 */
class SmallFunction
{
  public:
    /**
     * In-object storage. The largest hot captures in src/ (DirNNB
     * deferred replay, Typhoon BAF post, the barrier batch) are about
     * 40 bytes.
     */
    static constexpr std::size_t kInlineSize = 48;

    SmallFunction() = default;

    template <typename F,
              typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, SmallFunction> &&
                  std::is_invocable_r_v<void, D&>>>
    SmallFunction(F&& f)
    {
        construct<D>(std::forward<F>(f));
    }

    SmallFunction(SmallFunction&& o) noexcept { moveFrom(o); }

    SmallFunction&
    operator=(SmallFunction&& o) noexcept
    {
        if (this != &o) {
            destroy();
            moveFrom(o);
        }
        return *this;
    }

    SmallFunction(const SmallFunction&) = delete;
    SmallFunction& operator=(const SmallFunction&) = delete;

    ~SmallFunction() { destroy(); }

    explicit operator bool() const { return _vt != nullptr; }

    void
    operator()()
    {
        _vt->invoke(_buf);
    }

  private:
    struct VTable
    {
        void (*invoke)(void* storage);
        void (*relocate)(void* dst, void* src) noexcept;
        void (*destroy)(void* storage) noexcept;
    };

    template <typename D>
    static constexpr bool fitsInline =
        sizeof(D) <= kInlineSize &&
        alignof(D) <= alignof(std::max_align_t) &&
        std::is_nothrow_move_constructible_v<D>;

    template <typename D>
    struct InlineOps
    {
        static void
        invoke(void* storage)
        {
            (*std::launder(reinterpret_cast<D*>(storage)))();
        }

        static void
        relocate(void* dst, void* src) noexcept
        {
            D* s = std::launder(reinterpret_cast<D*>(src));
            ::new (dst) D(std::move(*s));
            s->~D();
        }

        static void
        destroy(void* storage) noexcept
        {
            std::launder(reinterpret_cast<D*>(storage))->~D();
        }

        static constexpr VTable vt{invoke, relocate, destroy};
    };

    template <typename D, typename F>
    void
    construct(F&& f)
    {
        static_assert(fitsInline<D>,
                      "closure must fit SmallFunction inline (size, "
                      "alignment, nothrow move); capture an index into "
                      "owner-kept storage instead");
        ::new (static_cast<void*>(_buf)) D(std::forward<F>(f));
        _vt = &InlineOps<D>::vt;
    }

    void
    moveFrom(SmallFunction& o) noexcept
    {
        _vt = o._vt;
        if (_vt) {
            _vt->relocate(_buf, o._buf);
            o._vt = nullptr;
        }
    }

    void
    destroy() noexcept
    {
        if (_vt) {
            _vt->destroy(_buf);
            _vt = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char _buf[kInlineSize];
    const VTable* _vt = nullptr;
};

} // namespace tt

#endif // TT_SIM_SMALL_FUNCTION_HH
