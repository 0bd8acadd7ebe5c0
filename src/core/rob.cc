#include "core/rob.hh"

#include <functional>

namespace carf::core
{

Rob::Rob(unsigned rob_capacity, unsigned fetch_capacity)
    : slots_(size_t{rob_capacity} + fetch_capacity),
      robCapacity_(rob_capacity),
      fetchCapacity_(fetch_capacity)
{
    if (rob_capacity == 0)
        panic("Rob: zero ROB capacity");
}

bool
Rob::inRob(const InFlightInst *inst) const
{
    // std::less: a total order even for pointers outside slots_.
    std::less<const InFlightInst *> before;
    if (before(inst, slots_.data()) ||
        !before(inst, slots_.data() + slots_.size()))
        return false;
    size_t index = static_cast<size_t>(inst - slots_.data());
    size_t offset = index >= head_ ? index - head_
                                   : index + slots_.size() - head_;
    return offset < count_;
}

} // namespace carf::core
