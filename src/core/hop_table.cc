#include "core/hop_table.h"

#include <utility>
#include <vector>

#include "core/mux_client.h"
#include "osal/reactor.h"
#include "resilience/metrics.h"

namespace rr::core {

HopTable::~HopTable() {
  for (auto& [address, client] : clients_) client->Close();
  clients_.clear();
  if (client_reactor_ != nullptr) client_reactor_->Stop();
}

void HopTable::set_wire_options(TransportOptions options) {
  MutexLock lock(mutex_);
  wire_options_ = options;
}

TransportOptions HopTable::wire_options() const {
  MutexLock lock(mutex_);
  return wire_options_;
}

void HopTable::set_breaker_options(resilience::BreakerOptions options) {
  MutexLock lock(mutex_);
  breaker_options_ = options;
}

Result<std::shared_ptr<Hop>> HopTable::Get(const Endpoint& source,
                                           const Endpoint& target) {
  const TransferMode mode = SelectMode(source.location, target.location);
  std::shared_ptr<Slot> slot;
  TransportOptions options;
  {
    MutexLock lock(mutex_);
    options = wire_options_;
    // Look the pair up first: only a miss allocates its slot.
    std::shared_ptr<Slot>& cached =
        slots_[PairKey{source.shim->name(), target.shim->name()}];
    if (cached == nullptr) cached = std::make_shared<Slot>();
    slot = cached;
  }
  // Establish under the slot's own mutex: concurrent first-use of distinct
  // pairs connects in parallel instead of serializing on the table lock.
  MutexLock slot_lock(slot->mutex);
  if (slot->hop == nullptr) {
    RR_ASSIGN_OR_RETURN(slot->hop, ConnectHop(mode, source, target, options));
  }
  return slot->hop;
}

Result<std::shared_ptr<MuxClient>> HopTable::AgentClient(
    const AgentAddress& address) {
  MutexLock lock(clients_mutex_);
  if (client_reactor_ == nullptr) {
    RR_ASSIGN_OR_RETURN(client_reactor_, osal::Reactor::Start("mux-client"));
  }
  std::shared_ptr<MuxClient>& client = clients_[address];
  if (client == nullptr) {
    client = MuxClient::Create(client_reactor_, address.host, address.port);
  }
  return client;
}

size_t HopTable::Evict(const std::string& name) {
  std::vector<std::shared_ptr<Slot>> removed;
  {
    MutexLock lock(mutex_);
    for (auto it = slots_.begin(); it != slots_.end();) {
      if (it->first.first == name || it->first.second == name) {
        removed.push_back(it->second);
        it = slots_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // slot->hop is guarded by the slot's own mutex (a concurrent Get may be
  // establishing it right now), so read it under that lock — and close
  // outside the table lock: shutting a wire down must not stall unrelated
  // pairs' Get calls.
  size_t evicted = 0;
  for (const std::shared_ptr<Slot>& slot : removed) {
    std::shared_ptr<Hop> hop;
    {
      MutexLock slot_lock(slot->mutex);
      hop = std::move(slot->hop);
    }
    if (hop != nullptr) {
      hop->Close();
      ++evicted;
    }
  }
  return evicted;
}

resilience::CircuitBreaker& HopTable::BreakerFor(const std::string& function,
                                                 size_t replica) {
  MutexLock lock(mutex_);
  auto& breaker = breakers_[{function, replica}];
  if (breaker == nullptr) {
    breaker = std::make_unique<resilience::CircuitBreaker>(breaker_options_);
    if (breaker->enabled()) {
      // Register the state gauge at creation — the first dispatch, before
      // any failure — so a scrape always sees the series (closed = 0).
      resilience::BreakerStateGauge(function, replica).Set(0);
    }
  }
  return *breaker;
}

Status HopTable::AdmitDispatch(const std::string& function, size_t replica) {
  resilience::CircuitBreaker& breaker = BreakerFor(function, replica);
  const Status admitted = breaker.Admit();
  if (breaker.enabled()) {
    resilience::BreakerStateGauge(function, replica)
        .Set(static_cast<int64_t>(breaker.state()));
  }
  return admitted;
}

void HopTable::RecordDispatchOutcome(const std::string& function,
                                     size_t replica, const Status& status) {
  resilience::CircuitBreaker& breaker = BreakerFor(function, replica);
  breaker.RecordOutcome(status);
  if (breaker.enabled()) {
    resilience::BreakerStateGauge(function, replica)
        .Set(static_cast<int64_t>(breaker.state()));
  }
}

std::vector<HopTable::BreakerInfo> HopTable::BreakerSnapshot() const {
  std::vector<BreakerInfo> snapshot;
  MutexLock lock(mutex_);
  snapshot.reserve(breakers_.size());
  for (const auto& [key, breaker] : breakers_) {
    snapshot.push_back(BreakerInfo{key.first, key.second, breaker->state()});
  }
  return snapshot;
}

std::optional<Nanos> HopTable::OpenBreakerRetryAfter() const {
  std::optional<TimePoint> earliest;
  {
    MutexLock lock(mutex_);
    for (const auto& [key, breaker] : breakers_) {
      if (breaker->state() != resilience::BreakerState::kOpen) continue;
      const TimePoint probe = breaker->probe_at();
      if (!earliest.has_value() || probe < *earliest) earliest = probe;
    }
  }
  if (!earliest.has_value()) return std::nullopt;
  const TimePoint now = Now();
  return *earliest > now ? *earliest - now : Nanos{0};
}

size_t HopTable::size() const {
  MutexLock lock(mutex_);
  return slots_.size();
}

}  // namespace rr::core
