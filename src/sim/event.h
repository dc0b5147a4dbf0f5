/**
 * @file
 * Intrusive simulation events.
 *
 * An Event is a named, reusable object owned by the component that
 * schedules it (gem5/MGSim style): the queue links events into its
 * internal structures through fields embedded in the Event itself, so
 * steady-state scheduling performs no heap allocation. Components
 * declare events as members — typically a MemberEvent bound to the
 * handler method — and schedule/deschedule/reschedule them through
 * the EventQueue. Events with per-occurrence payload (a message, a
 * callback) are recycled through an EventPool.
 *
 * The closure API (EventQueue::schedule(Tick, EventFn)) remains
 * available for cold paths; it is backed by a pooled LambdaEvent in
 * event_queue.h. A closure whose captures outgrow std::function's
 * small buffer allocates on every schedule, so no hot path uses it,
 * and priority scheduling (the network's arrival flushes) takes an
 * owned Event only.
 */

#ifndef PIRANHA_SIM_EVENT_H
#define PIRANHA_SIM_EVENT_H

#include <cstdint>
#include <utility>

#include "sim/recycle_pool.h"
#include "sim/types.h"

namespace piranha {

class EventQueue;

/** A schedulable occurrence; subclasses implement process(). */
class Event
{
    friend class EventQueue;

  public:
    Event() = default;
    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Executed when simulated time reaches the scheduled tick. */
    virtual void process() = 0;

    /** Diagnostic name; must point to storage outliving the event. */
    virtual const char *eventName() const { return "event"; }

    /** True while the event sits on a queue awaiting execution. */
    bool scheduled() const { return _sched; }

    /** Tick of the pending occurrence (valid while scheduled()). */
    Tick when() const { return _when; }

    /** Cancel the pending occurrence; no-op when not scheduled. */
    void squash();

  private:
    Event *_prev = nullptr;      //!< wheel-bucket list links
    Event *_next = nullptr;
    EventQueue *_eq = nullptr;   //!< queue of the last schedule()
    Tick _when = 0;
    std::uint64_t _seq = 0;      //!< schedule order; breaks same-tick ties
    std::uint32_t _heapRefs = 0; //!< far-heap entries naming this event
    bool _sched = false;
    bool _inWheel = false;
};

/** An event that invokes a fixed member function of its owner. */
template <class T, void (T::*Fn)()>
class MemberEvent final : public Event
{
  public:
    explicit MemberEvent(T *obj, const char *name = "member-event")
        : _obj(obj), _name(name)
    {}

    void process() override { (_obj->*Fn)(); }
    const char *eventName() const override { return _name; }

  private:
    T *_obj;
    const char *_name;
};

/**
 * A free list of reusable events for call sites that may have several
 * occurrences in flight (one pooled event per pending occurrence); the
 * pool only grows while the in-flight high-water mark does.
 */
template <class EvT>
using EventPool = RecyclePool<EvT>;

} // namespace piranha

#endif // PIRANHA_SIM_EVENT_H
