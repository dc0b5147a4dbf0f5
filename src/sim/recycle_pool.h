/**
 * @file
 * A free list of reusable, pointer-stable objects.
 *
 * acquire() recycles a released object or constructs a new one, so
 * the pool only grows while the in-use high-water mark does and
 * steady-state acquire/release cycles never allocate. A released
 * object is not destroyed or reset: whatever buffers it owns (a
 * RingBuffer's array, say) come back with it on the next acquire,
 * and the caller resets the fields it relies on.
 *
 * Used for pooled events (EventPool), the L2 banks' per-line
 * transaction records and the protocol engines' per-line queues.
 */

#ifndef PIRANHA_SIM_RECYCLE_POOL_H
#define PIRANHA_SIM_RECYCLE_POOL_H

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace piranha {

template <class T>
class RecyclePool
{
  public:
    template <class... Args>
    T *
    acquire(Args &&...ctor_args)
    {
        if (_free.empty()) {
            _all.push_back(
                std::make_unique<T>(std::forward<Args>(ctor_args)...));
            return _all.back().get();
        }
        T *t = _free.back();
        _free.pop_back();
        return t;
    }

    void release(T *t) { _free.push_back(t); }

    /** Objects ever constructed (the high-water mark). */
    std::size_t size() const { return _all.size(); }

    /** Objects acquired and not yet released. */
    std::size_t live() const { return _all.size() - _free.size(); }

  private:
    std::vector<std::unique_ptr<T>> _all;
    std::vector<T *> _free;
};

} // namespace piranha

#endif // PIRANHA_SIM_RECYCLE_POOL_H
