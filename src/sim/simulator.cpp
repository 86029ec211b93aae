#include "sim/simulator.hpp"

#include "common/check.hpp"

namespace qcnt::sim {

void Simulator::At(Time t, std::function<void()> fn) {
  QCNT_CHECK(t >= now_);
  queue_.push(Event{t, next_seq_++, std::move(fn)});
}

void Simulator::After(Time delay, std::function<void()> fn) {
  QCNT_CHECK(delay >= 0.0);
  At(now_ + delay, std::move(fn));
}

void Simulator::Run(Time until) {
  while (!queue_.empty() && queue_.top().at <= until) {
    // Moving out of a priority_queue requires a const_cast: steal the
    // event, then pop the moved-from shell.
    Event ev = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    now_ = ev.at;
    ev.fn();
  }
}

}  // namespace qcnt::sim
