#include "txn/scripted_transaction.hpp"

#include "common/check.hpp"

namespace qcnt::txn {

ScriptedTransaction::ScriptedTransaction(const SystemType& type, TxnId txn,
                                         std::vector<TxnId> children,
                                         Options options)
    : type_(&type),
      txn_(txn),
      script_(std::move(children)),
      options_(std::move(options)) {
  QCNT_CHECK(txn < type.TxnCount() && !type.IsAccess(txn));
  for (TxnId child : script_) {
    QCNT_CHECK_MSG(type.Parent(child) == txn,
                   "script entries must be children of the transaction");
  }
  Reset();
}

ScriptedTransaction::ScriptedTransaction(const SystemType& type, TxnId txn,
                                         std::vector<TxnId> children)
    : ScriptedTransaction(type, txn, std::move(children), Options{}) {}

void ScriptedTransaction::Reset() {
  awake_ = false;
  commit_requested_ = false;
  requested_.assign(script_.size(), 0);
  returned_.assign(script_.size(), 0);
  outcomes_.assign(script_.size(), std::nullopt);
  returned_count_ = 0;
}

const std::optional<Value>& ScriptedTransaction::Outcome(
    std::size_t i) const {
  QCNT_CHECK(i < outcomes_.size());
  return outcomes_[i];
}

std::string ScriptedTransaction::Name() const {
  return "transaction(" + type_->Label(txn_) + ")";
}

bool ScriptedTransaction::IsScriptChild(TxnId t) const {
  for (TxnId child : script_) {
    if (child == t) return true;
  }
  return false;
}

std::size_t ScriptedTransaction::ScriptIndex(TxnId t) const {
  for (std::size_t i = 0; i < script_.size(); ++i) {
    if (script_[i] == t) return i;
  }
  QCNT_FAIL("not a script child");
}

bool ScriptedTransaction::IsOperation(const ioa::Action& a) const {
  switch (a.kind) {
    case ioa::ActionKind::kCreate:
    case ioa::ActionKind::kRequestCommit:
      return a.txn == txn_;
    case ioa::ActionKind::kRequestCreate:
    case ioa::ActionKind::kCommit:
    case ioa::ActionKind::kAbort:
      // Operations of T for its children. We claim only script children so
      // that several automata may (in other systems) share a parent name.
      return a.txn < type_->TxnCount() && type_->Parent(a.txn) == txn_ &&
             IsScriptChild(a.txn);
  }
  return false;
}

bool ScriptedTransaction::IsOutput(const ioa::Action& a) const {
  return IsOperation(a) && (a.kind == ioa::ActionKind::kRequestCreate ||
                            a.kind == ioa::ActionKind::kRequestCommit);
}

std::optional<std::size_t> ScriptedTransaction::NextToRequest() const {
  for (std::size_t i = 0; i < script_.size(); ++i) {
    if (requested_[i]) {
      if (options_.sequential && !returned_[i]) return std::nullopt;
      continue;
    }
    return i;
  }
  return std::nullopt;
}

bool ScriptedTransaction::ReadyToCommit() const {
  if (!awake_ || commit_requested_) return false;
  for (std::size_t i = 0; i < script_.size(); ++i) {
    if (!requested_[i] || !returned_[i]) return false;
  }
  return true;
}

Value ScriptedTransaction::CommitValue() const {
  return options_.reduce ? options_.reduce(outcomes_) : kNil;
}

bool ScriptedTransaction::Enabled(const ioa::Action& a) const {
  if (!IsOperation(a)) return false;
  switch (a.kind) {
    case ioa::ActionKind::kCreate:
    case ioa::ActionKind::kCommit:
    case ioa::ActionKind::kAbort:
      return true;  // inputs
    case ioa::ActionKind::kRequestCreate: {
      if (!awake_ || commit_requested_) return false;
      const auto next = NextToRequest();
      return next.has_value() && script_[*next] == a.txn;
    }
    case ioa::ActionKind::kRequestCommit:
      return ReadyToCommit() && a.value == CommitValue();
  }
  return false;
}

void ScriptedTransaction::Apply(const ioa::Action& a) {
  switch (a.kind) {
    case ioa::ActionKind::kCreate:
      awake_ = true;
      break;
    case ioa::ActionKind::kRequestCreate:
      requested_[ScriptIndex(a.txn)] = 1;
      break;
    case ioa::ActionKind::kCommit: {
      const std::size_t i = ScriptIndex(a.txn);
      if (!returned_[i]) {
        returned_[i] = 1;
        outcomes_[i] = a.value;
        ++returned_count_;
      }
      break;
    }
    case ioa::ActionKind::kAbort: {
      const std::size_t i = ScriptIndex(a.txn);
      if (!returned_[i]) {
        returned_[i] = 1;
        ++returned_count_;
      }
      break;
    }
    case ioa::ActionKind::kRequestCommit:
      commit_requested_ = true;
      break;
  }
}

void ScriptedTransaction::EnabledOutputs(
    std::vector<ioa::Action>& out) const {
  if (!awake_ || commit_requested_) return;
  if (const auto next = NextToRequest()) {
    out.push_back(ioa::RequestCreate(script_[*next]));
    if (options_.sequential) {
      // In sequential mode nothing else can happen until this child is
      // requested and returns.
      return;
    }
  }
  if (ReadyToCommit()) {
    out.push_back(ioa::RequestCommit(txn_, CommitValue()));
  }
}

}  // namespace qcnt::txn
