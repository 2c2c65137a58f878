/**
 * @file
 * A sim::NodeRouter over one shared event queue, for unit tests that
 * build network interfaces by hand: every post, whatever its source
 * and destination node, is scheduled on that queue at the tick and
 * priority given.
 */

#ifndef SHRIMP_TESTS_SUPPORT_ONE_QUEUE_ROUTER_HH
#define SHRIMP_TESTS_SUPPORT_ONE_QUEUE_ROUTER_HH

#include <utility>

#include "sim/event_queue.hh"
#include "sim/sharded.hh"

namespace shrimp::testsupport
{

class OneQueueRouter : public sim::NodeRouter
{
  public:
    explicit OneQueueRouter(sim::EventQueue &eq) : eq_(eq) {}

    void
    post(NodeId, NodeId, Tick when, const char *name,
         sim::EventCallback fn, sim::EventPriority prio) override
    {
        eq_.schedule(when, name, std::move(fn), prio);
    }

  private:
    sim::EventQueue &eq_;
};

} // namespace shrimp::testsupport

#endif // SHRIMP_TESTS_SUPPORT_ONE_QUEUE_ROUTER_HH
