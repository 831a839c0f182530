// Request/response RPC over the simulated network. Control-plane traffic in
// the cluster (job submission, task dispatch, heartbeats, completion reports)
// goes through here so it both costs virtual time and exercises the serde
// layer end-to-end — the "RPC/serialization plumbing" of a real MapReduce
// deployment.
#pragma once

#include <functional>
#include <string>
#include <unordered_map>

#include "net/network.hpp"
#include "serde/serde.hpp"

namespace asyncmr::net {

class RpcSystem {
 public:
  /// A handler consumes a request payload and produces a reply payload.
  using Handler =
      std::function<Result<serde::Buffer>(NodeId from, const serde::Buffer& request)>;
  using ReplyCallback = std::function<void(Result<serde::Buffer>)>;

  explicit RpcSystem(Network& network) : network_(network) {}

  RpcSystem(const RpcSystem&) = delete;
  RpcSystem& operator=(const RpcSystem&) = delete;

  /// Registers `method` on `node`; replaces any previous handler.
  void RegisterHandler(NodeId node, const std::string& method, Handler handler);

  /// Removes `method` from `node`; no-op if absent. Services with a shorter
  /// lifetime than the cluster must unregister their handlers.
  void UnregisterHandler(NodeId node, const std::string& method);

  /// Invokes `method` on node `to`. Request and reply payloads each pay
  /// transfer cost; the handler runs at the destination in virtual time.
  /// With `on_failed`, the request leg becomes loss-aware: it can be dropped
  /// by lossy links or severed by partitions like any other unreliable flow,
  /// and on_failed fires (once) instead of the handler ever running. The
  /// reply leg stays reliable — callers that care about lost replies should
  /// model them as a request in the other direction. Default (nullptr) is
  /// the historical reliable behaviour, bit-identical on fault-free runs.
  void Call(NodeId from, NodeId to, const std::string& method,
            serde::Buffer request, ReplyCallback on_reply,
            std::function<void()> on_failed = nullptr);

  uint64_t calls_made() const { return calls_made_; }

 private:
  Network& network_;
  // (node, method) -> handler
  std::unordered_map<NodeId, std::unordered_map<std::string, Handler>> handlers_;
  uint64_t calls_made_ = 0;

  /// Fixed per-message envelope overhead (headers, framing) in bytes.
  static constexpr uint64_t kEnvelopeBytes = 64;
};

}  // namespace asyncmr::net
