#include "runtime/client.hpp"

namespace qcnt::runtime {

namespace {
ClientOptions WindowOne(ClientOptions options) {
  options.window = 1;
  options.max_batch = 1;
  return options;
}
}  // namespace

QuorumClient::QuorumClient(Transport& transport, NodeId id,
                           std::shared_ptr<ConfigTable> table,
                           std::uint32_t initial_config, ClientOptions options)
    : pipe_(transport, id, std::move(table), initial_config,
            WindowOne(options)) {}

QuorumClient::QuorumClient(Transport& transport, NodeId id,
                           std::vector<quorum::QuorumSystem> configs,
                           std::uint32_t initial_config, ClientOptions options)
    : pipe_(transport, id, std::move(configs), initial_config,
            WindowOne(options)) {}

ClientResult QuorumClient::Read(const std::string& key) {
  return pipe_.SubmitRead(key).Get();
}

ClientResult QuorumClient::Write(const std::string& key, std::int64_t value) {
  return pipe_.SubmitWrite(key, value).Get();
}

ClientResult QuorumClient::Reconfigure(std::uint32_t target,
                                       std::uint64_t* stamp_acked_out) {
  OpFuture f = pipe_.SubmitReconfigure(target);
  const ClientResult r = f.Get();
  if (r.ok && stamp_acked_out != nullptr) {
    *stamp_acked_out = f.op_->StampAcked();
  }
  return r;
}

}  // namespace qcnt::runtime
