// Workflow registry: one workflow's function endpoints plus the HopTable of
// established hops between them.
//
// WorkflowManager is the control-plane substrate the async façade
// (api::Runtime) executes over — chains and DAG-shaped workflows both run
// through Runtime::Submit on this registry and hop cache.
#pragma once

#include <map>
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include <string>
#include <vector>

#include "core/endpoint.h"
#include "core/hop_table.h"

namespace rr::core {

// WorkflowManager owns no sandboxes — shims are registered by the platform
// integration — and is the piece an orchestrator (Knative/OpenFaaS/...)
// would drive.
//
// Registration is a control-plane operation; Register/Unregister must not
// race a run that uses the affected endpoint. Lookups and transfers from
// concurrent invocations are safe.
class WorkflowManager {
 public:
  explicit WorkflowManager(std::string workflow) : workflow_(std::move(workflow)) {}

  Status Register(Endpoint endpoint);

  // Removes a function and evicts every cached hop it participates in, so a
  // replacement shim registered under the same name starts from fresh
  // channels instead of inheriting connections to the dead sandbox.
  Status Unregister(const std::string& name);

  Result<Endpoint*> Find(const std::string& name);

  // The mode that a transfer will use between two registered functions.
  Result<TransferMode> ModeBetween(const std::string& source,
                                   const std::string& target);

  // The shared cache of established hops (exposed so DAG executors drive the
  // same connections chains do).
  HopTable& hops() { return hops_; }

  const std::string& workflow() const { return workflow_; }

 private:
  std::string workflow_;
  Mutex mutex_;  // map nodes themselves are address-stable once inserted
  std::map<std::string, Endpoint> endpoints_ RR_GUARDED_BY(mutex_);
  HopTable hops_;
};

}  // namespace rr::core
