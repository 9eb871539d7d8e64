#include "curb/bft/replica.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "curb/prof/profiler.hpp"

namespace curb::bft {

namespace {

using Type = PbftMessage::Type;

bool is_vote(Type type) {
  return type == Type::kPrepare || type == Type::kCommit || type == Type::kVotePrepare ||
         type == Type::kVotePreCommit || type == Type::kVoteCommit;
}

}  // namespace

Replica::Replica(Config config, sim::Simulator& sim, SendFn send, DeliverFn deliver)
    : config_{std::move(config)},
      sim_{sim},
      send_{std::move(send)},
      deliver_{std::move(deliver)},
      view_{config_.initial_view} {
  if (config_.group_size < 4) {
    throw std::invalid_argument{"Replica: group size must be >= 4 (3f+1, f >= 1)"};
  }
  if (config_.replica_index >= config_.group_size) {
    throw std::invalid_argument{"Replica: replica index out of range"};
  }
  if (config_.obs != nullptr) {
    auto& registry = config_.obs->metrics;
    const obs::Labels layer{{"layer", config_.span_prefix}};
    view_changes_metric_ = &registry.counter("bft.view_changes", layer);
    timeouts_metric_ = &registry.counter("bft.timeouts_fired", layer);
    prepare_us_ = &registry.histogram("bft.prepare_us", layer);
    commit_us_ = &registry.histogram("bft.commit_us", layer);
    slot_us_ = &registry.histogram("bft.slot_us", layer);
  }
}

Replica::~Replica() {
  for (auto& [seq, s] : slots_) sim_.cancel(s.timeout);
}

PbftMessage Replica::message(Type type, std::uint64_t sequence,
                             const crypto::Hash256& digest) const {
  PbftMessage msg;
  msg.type = type;
  msg.view = view_;
  msg.sequence = sequence;
  msg.digest = digest;
  msg.sender = config_.replica_index;
  return msg;
}

std::uint64_t Replica::propose(std::vector<std::uint8_t> payload) {
  if (!is_leader()) throw std::logic_error{"Replica: propose() on non-leader"};
  const std::uint64_t seq = next_seq_++;
  if (config_.behavior != Behavior::kEquivocate) {
    lead(seq, std::move(payload));
    return seq;
  }
  // Conflicting proposals: half the peers see a corrupted payload. Honest
  // replicas will fail to assemble a quorum on either digest.
  std::vector<std::uint8_t> corrupted = payload;
  if (!corrupted.empty()) corrupted[0] ^= 0xff;
  corrupted.push_back(0xee);
  for (std::uint32_t dest = 0; dest < config_.group_size; ++dest) {
    if (dest == config_.replica_index) continue;
    PbftMessage variant = message(proposal_type(), seq);
    variant.payload = (dest % 2 == 0) ? payload : corrupted;
    variant.digest = payload_digest(variant.payload);
    send_to(dest, std::move(variant));
  }
  return seq;
}

void Replica::lead(std::uint64_t sequence, std::vector<std::uint8_t> payload) {
  PbftMessage msg = message(proposal_type(), sequence);
  msg.payload = std::move(payload);
  msg.digest = payload_digest(msg.payload);

  // Self-accept the proposal (it is the leader's own prepare vote), then
  // broadcast.
  auto& s = slot(sequence);
  s.digest = msg.digest;
  s.payload = msg.payload;
  s.prepare_votes.insert(config_.replica_index);
  obs_slot_accepted(sequence, s);
  arm_timeout(sequence);
  broadcast(msg);
}

void Replica::send_to(std::uint32_t dest, PbftMessage msg) {
  switch (config_.behavior) {
    case Behavior::kSilent:
      return;  // byzantine: withhold everything
    case Behavior::kLazy: {
      // Deliver late: schedule the send after the configured delay. The
      // callback copies send_ so it stays valid if this replica is torn
      // down (Curb reassignment) before the delayed send fires.
      sim_.schedule(config_.lazy_delay,
                    [send = send_, dest, msg = std::move(msg)] { send(dest, msg); });
      return;
    }
    case Behavior::kEquivocate:
      if (is_vote(msg.type)) msg.digest[0] ^= 0xff;  // vote for a digest nobody proposed
      break;
    case Behavior::kSelectiveSilent:
      if (dest % 2 == 0) return;  // withhold from even-indexed peers only
      break;
    case Behavior::kStaleViewSpam:  // spam happens at the controller layer
    case Behavior::kHonest:
      break;
  }
  send_(dest, msg);
}

void Replica::broadcast(const PbftMessage& msg) {
  for (std::uint32_t dest = 0; dest < config_.group_size; ++dest) {
    if (dest == config_.replica_index) continue;
    send_to(dest, msg);
  }
}

void Replica::on_message(const PbftMessage& msg) {
  const prof::Scope scope{config_.engine == ConsensusEngine::kPbft ? "bft.pbft_msg"
                                                                   : "bft.hotstuff_msg"};
  if (msg.sender >= config_.group_size || msg.sender == config_.replica_index) return;
  switch (msg.type) {
    case Type::kViewChange: handle_view_change(msg); break;
    case Type::kNewView: handle_new_view(msg); break;
    default:
      if (config_.engine == ConsensusEngine::kPbft) {
        pbft_on_message(msg);
      } else {
        hotstuff_on_message(msg);
      }
  }
}

bool Replica::accept_proposal(const PbftMessage& msg) {
  if (msg.view != view_) return false;
  if (msg.sender != leader_index()) return false;  // only the leader may propose
  if (payload_digest(msg.payload) != msg.digest) return false;  // malformed
  if (config_.validate_payload && !config_.validate_payload(msg.payload)) return false;

  auto& s = slot(msg.sequence);
  if (s.digest && *s.digest != msg.digest) return false;  // conflicting proposal
  if (s.executed) return false;
  const bool fresh = !s.digest.has_value();
  s.digest = msg.digest;
  s.payload = msg.payload;
  if (fresh) {
    obs_slot_accepted(msg.sequence, s);
    arm_timeout(msg.sequence);
  }
  return true;
}

void Replica::commit(SlotState& s) {
  s.stage = Stage::kCommitted;
  obs_slot_committed(s);
  sim_.cancel(s.timeout);
  try_execute();
}

void Replica::try_execute() {
  for (;;) {
    const auto it = slots_.find(next_exec_);
    if (it == slots_.end() || it->second.stage != Stage::kCommitted ||
        it->second.executed) {
      break;
    }
    it->second.executed = true;
    obs_slot_executed(it->second);
    deliver_(next_exec_, it->second.payload);
    ++next_exec_;
  }
  // Checkpoint-lite: drop executed slots far behind the execution frontier.
  // Re-delivery is impossible regardless (execution is strictly in-order),
  // so this only bounds memory; late votes for a collected slot simply
  // accumulate in a fresh (never-executing) slot entry.
  if (config_.gc_window > 0 && next_exec_ > config_.gc_window) {
    const std::uint64_t horizon = next_exec_ - config_.gc_window;
    for (auto it2 = slots_.begin(); it2 != slots_.end() && it2->first < horizon;) {
      if (!it2->second.executed) break;  // keep anything unexecuted
      sim_.cancel(it2->second.timeout);
      it2 = slots_.erase(it2);
    }
  }
}

void Replica::arm_timeout(std::uint64_t sequence) {
  auto& s = slot(sequence);
  // A slot can be re-armed (e.g. re-proposed after a view change); the old
  // timer must die with the old round or it fires against the new one and
  // triggers a spurious view change.
  sim_.cancel(s.timeout);
  s.timeout = sim_.schedule(config_.view_change_timeout, [this, sequence] {
    const auto it = slots_.find(sequence);
    if (it == slots_.end() || it->second.stage == Stage::kCommitted) return;
    if (timeouts_metric_ != nullptr) timeouts_metric_->inc();
    if (tracing()) {
      config_.obs->tracer.instant(config_.span_prefix + ".timeout", config_.span_track,
                                  {{"seq", std::to_string(sequence)}});
    }
    start_view_change();
  });
}

void Replica::start_view_change() {
  if (view_change_in_progress_) return;
  view_change_in_progress_ = true;
  send_view_change(view_ + 1);
  handle_view_change_quorum(/*candidate_view=*/view_ + 1);
}

void Replica::send_view_change(std::uint64_t view) {
  PbftMessage msg = message(Type::kViewChange, 0);
  msg.view = view;
  for (const auto& [seq, s] : slots_) {
    if (s.stage >= Stage::kLocked && !s.executed && s.digest) {
      msg.prepared.push_back({seq, *s.digest, s.payload});
    }
  }
  // Record the own vote, then broadcast.
  view_change_votes_[view][config_.replica_index] = msg.prepared;
  broadcast(msg);
}

void Replica::handle_view_change(const PbftMessage& msg) {
  if (msg.view <= view_) return;
  auto& votes = view_change_votes_[msg.view];
  votes[msg.sender] = msg.prepared;

  // Join the view change once f+1 peers demand it (they cannot all be lying).
  if (!view_change_in_progress_ && votes.size() >= f() + 1 &&
      !votes.contains(config_.replica_index)) {
    view_change_in_progress_ = true;
    send_view_change(msg.view);
  }
  handle_view_change_quorum(msg.view);
}

void Replica::handle_view_change_quorum(std::uint64_t candidate_view) {
  const auto it = view_change_votes_.find(candidate_view);
  if (it == view_change_votes_.end() || it->second.size() < quorum()) return;
  const auto new_leader = static_cast<std::uint32_t>(candidate_view % config_.group_size);
  if (new_leader != config_.replica_index) return;
  if (candidate_view <= view_) return;

  // New leader: install the view and re-propose every locked entry.
  PbftMessage new_view = message(Type::kNewView, 0);
  new_view.view = candidate_view;
  std::map<std::uint64_t, PbftMessage::PreparedEntry> merged;
  for (const auto& [replica, entries] : it->second) {
    for (const auto& e : entries) merged.emplace(e.sequence, e);
  }
  for (const auto& [seq, e] : merged) new_view.prepared.push_back(e);
  broadcast(new_view);
  adopt_new_view(candidate_view, new_view.prepared);
}

void Replica::handle_new_view(const PbftMessage& msg) {
  if (msg.view <= view_) return;
  const auto expected_leader = static_cast<std::uint32_t>(msg.view % config_.group_size);
  if (msg.sender != expected_leader) return;
  adopt_new_view(msg.view, msg.prepared);
}

void Replica::adopt_new_view(std::uint64_t new_view,
                             const std::vector<PbftMessage::PreparedEntry>& prepared) {
  view_ = new_view;
  view_change_in_progress_ = false;
  // Votes for the adopted view and everything below are settled; keeping
  // them would let stale (or spammed) view-change votes accumulate forever.
  view_change_votes_.erase(view_change_votes_.begin(),
                           view_change_votes_.upper_bound(new_view));
  obs_view_installed(new_view);
  // Reset per-slot voting state for unexecuted slots; re-run consensus on
  // the carried-over locked entries in the new view.
  std::uint64_t max_seq = next_exec_ - 1;
  for (auto& [seq, s] : slots_) {
    max_seq = std::max(max_seq, seq);
    if (s.executed) continue;
    sim_.cancel(s.timeout);
    obs_slot_reset(s);
    s.prepare_votes.clear();
    s.precommit_votes.clear();
    s.commit_votes.clear();
    s.stage = Stage::kOpen;
    s.digest.reset();
    s.payload.clear();
  }
  next_seq_ = std::max(next_seq_, max_seq + 1);
  if (on_view_change_) on_view_change_(new_view);

  if (is_leader()) {
    for (const auto& e : prepared) {
      const auto it = slots_.find(e.sequence);
      if (it != slots_.end() && it->second.executed) continue;
      lead(e.sequence, e.payload);
    }
  }
}

// ---- PBFT vote rule: all-to-all prepare and commit votes ---------------

void Replica::pbft_on_message(const PbftMessage& msg) {
  if (msg.view != view_) return;
  switch (msg.type) {
    case Type::kPrePrepare: {
      if (!accept_proposal(msg)) return;
      auto& s = slot(msg.sequence);
      s.prepare_votes.insert(config_.replica_index);
      s.prepare_votes.insert(msg.sender);  // the pre-prepare is the leader's prepare vote
      broadcast(message(Type::kPrepare, msg.sequence, msg.digest));
      pbft_check_prepared(msg.sequence);
      return;
    }
    case Type::kPrepare:
    case Type::kCommit: {
      auto& s = slot(msg.sequence);
      if (s.digest && *s.digest != msg.digest) return;  // vote for a different digest
      // A prepare arriving before the pre-prepare is only remembered: the
      // checks below need the accepted digest.
      if (msg.type == Type::kPrepare) {
        s.prepare_votes.insert(msg.sender);
        pbft_check_prepared(msg.sequence);
      } else {
        s.commit_votes.insert(msg.sender);
        pbft_check_committed(msg.sequence);
      }
      return;
    }
    default:
      return;  // HotStuff traffic: not ours
  }
}

void Replica::pbft_check_prepared(std::uint64_t sequence) {
  auto& s = slot(sequence);
  // Prepared (locked): pre-prepare accepted + 2f+1 prepare votes (own included).
  if (s.stage >= Stage::kLocked || !s.digest || s.prepare_votes.size() < quorum()) return;
  s.stage = Stage::kLocked;
  s.commit_votes.insert(config_.replica_index);
  obs_slot_prepared(s);
  broadcast(message(Type::kCommit, sequence, *s.digest));
  pbft_check_committed(sequence);
}

void Replica::pbft_check_committed(std::uint64_t sequence) {
  auto& s = slot(sequence);
  if (s.stage != Stage::kLocked || s.commit_votes.size() < quorum()) return;
  commit(s);
}

// ---- HotStuff vote rule: votes to the leader, QCs from the leader ------

void Replica::hotstuff_on_message(const PbftMessage& msg) {
  switch (msg.type) {
    case Type::kProposal:
      if (accept_proposal(msg)) {
        send_to(leader_index(), message(Type::kVotePrepare, msg.sequence, msg.digest));
      }
      break;
    case Type::kVotePrepare:
    case Type::kVotePreCommit:
    case Type::kVoteCommit: hotstuff_on_vote(msg); break;
    case Type::kQcPrepare:
    case Type::kQcPreCommit:
    case Type::kQcCommit: hotstuff_on_qc(msg); break;
    default: break;  // PBFT traffic: not ours
  }
}

void Replica::hotstuff_on_vote(const PbftMessage& msg) {
  // Votes flow to the current leader only.
  if (!is_leader() || msg.view != view_) return;
  auto& s = slot(msg.sequence);
  if (!s.digest || *s.digest != msg.digest) return;

  // Each phase's votes form its QC once the leader stands at that phase.
  std::set<std::uint32_t>* votes = &s.commit_votes;
  Stage at = Stage::kLocked;
  Type qc_type = Type::kQcCommit;
  if (msg.type == Type::kVotePrepare) {
    votes = &s.prepare_votes;
    at = Stage::kOpen;
    qc_type = Type::kQcPrepare;
  } else if (msg.type == Type::kVotePreCommit) {
    votes = &s.precommit_votes;
    at = Stage::kPrepared;
    qc_type = Type::kQcPreCommit;
  }
  votes->insert(msg.sender);
  if (s.stage != at || votes->size() < quorum()) return;
  PbftMessage qc = message(qc_type, msg.sequence, *s.digest);
  qc.qc_voters.assign(votes->begin(), votes->end());
  broadcast(qc);
  hotstuff_on_qc(qc);  // the leader processes its own QC locally
}

bool Replica::qc_valid(const PbftMessage& msg) const {
  // A QC must name >= 2f+1 distinct in-range voters. (A deployment would
  // verify a threshold signature here; the simulation checks structure.)
  std::set<std::uint32_t> distinct;
  for (const std::uint32_t v : msg.qc_voters) {
    if (v < config_.group_size) distinct.insert(v);
  }
  return distinct.size() >= quorum();
}

void Replica::hotstuff_on_qc(const PbftMessage& msg) {
  if (msg.view != view_ || !qc_valid(msg)) return;
  auto& s = slot(msg.sequence);
  if (!s.digest) {
    // QC for a proposal this replica never saw (e.g. joined late): adopt the
    // digest; the payload will arrive via NEW-VIEW re-proposals if needed.
    // The slot span opens here instead of on the proposal.
    s.digest = msg.digest;
    obs_slot_accepted(msg.sequence, s);
  }
  if (*s.digest != msg.digest) return;

  // Each QC advances the slot one stage and answers with the next vote.
  const auto next_vote = [&](Type vote, std::set<std::uint32_t>& own_votes) {
    if (is_leader()) {
      own_votes.insert(config_.replica_index);
    } else {
      send_to(leader_index(), message(vote, msg.sequence, msg.digest));
    }
  };
  switch (msg.type) {
    case Type::kQcPrepare:
      if (s.stage != Stage::kOpen) return;
      s.stage = Stage::kPrepared;
      obs_slot_prepared(s);
      next_vote(Type::kVotePreCommit, s.precommit_votes);
      return;
    case Type::kQcPreCommit:
      if (s.stage != Stage::kPrepared) return;
      s.stage = Stage::kLocked;
      next_vote(Type::kVoteCommit, s.commit_votes);
      return;
    default:  // kQcCommit
      if (s.stage == Stage::kCommitted) return;
      if (s.stage == Stage::kOpen) obs_slot_prepared(s);  // the commit QC implies it
      commit(s);
  }
}

// ---- observability hooks ----------------------------------------------
//
// Span model per slot, all on this replica's track:
//   {prefix}           accept -> execute       (the whole slot)
//     {prefix}.prepare accept -> prepared      (pre-prepare implied at start)
//     {prefix}.commit  prepared -> committed
// "Prepared" is PBFT's prepared certificate and HotStuff's prepare QC;
// "committed" is PBFT's commit quorum and HotStuff's commit QC. Phase
// durations also land in the bft.{prepare,commit,slot}_us histograms so runs
// without tracing still get timing distributions.

void Replica::obs_slot_accepted_impl(std::uint64_t sequence, SlotState& s) {
  s.accepted_at = sim_.now();
  if (!tracing()) return;
  auto& tracer = config_.obs->tracer;
  obs::Attrs attrs = config_.span_attrs;
  attrs.emplace_back("seq", std::to_string(sequence));
  attrs.emplace_back("view", std::to_string(view_));
  // Join key of the traced-event contract (DESIGN.md §9): the payload digest
  // ties this consensus slot to the AGREE / block_commit stage it feeds.
  if (s.digest) attrs.emplace_back("digest", crypto::short_hex(*s.digest, 8));
  // Slots interleave on the replica track, so the slot span is a root and
  // every phase hangs explicitly off its own slot.
  s.span = tracer.begin_under({}, config_.span_prefix, config_.span_track, attrs);
  tracer.end(
      tracer.begin_under(s.span, config_.span_prefix + ".pre_prepare", config_.span_track));
  s.phase_span =
      tracer.begin_under(s.span, config_.span_prefix + ".prepare", config_.span_track);
}

void Replica::obs_slot_prepared_impl(SlotState& s) {
  s.prepared_at = sim_.now();
  if (prepare_us_ != nullptr) {
    prepare_us_->record(static_cast<double>((s.prepared_at - s.accepted_at).as_micros()));
  }
  if (!tracing()) return;
  auto& tracer = config_.obs->tracer;
  tracer.end(s.phase_span);
  s.phase_span =
      tracer.begin_under(s.span, config_.span_prefix + ".commit", config_.span_track);
}

void Replica::obs_slot_committed_impl(SlotState& s) {
  if (commit_us_ != nullptr) {
    commit_us_->record(static_cast<double>((sim_.now() - s.prepared_at).as_micros()));
  }
  if (!tracing()) return;
  config_.obs->tracer.end(s.phase_span);
  s.phase_span = obs::SpanId{};
}

void Replica::obs_slot_executed_impl(SlotState& s) {
  if (slot_us_ != nullptr) {
    slot_us_->record(static_cast<double>((sim_.now() - s.accepted_at).as_micros()));
  }
  if (!tracing()) return;
  config_.obs->tracer.end(s.span);
  s.span = obs::SpanId{};
}

void Replica::obs_slot_reset_impl(SlotState& s) {
  if (!tracing()) {
    s.span = obs::SpanId{};
    s.phase_span = obs::SpanId{};
    return;
  }
  auto& tracer = config_.obs->tracer;
  tracer.end(s.phase_span);
  tracer.end(s.span);
  s.phase_span = obs::SpanId{};
  s.span = obs::SpanId{};
}

void Replica::obs_view_installed_impl(std::uint64_t new_view) {
  if (view_changes_metric_ != nullptr) view_changes_metric_->inc();
  if (tracing()) {
    config_.obs->tracer.instant(config_.span_prefix + ".view_change", config_.span_track,
                                {{"view", std::to_string(new_view)}});
  }
}

}  // namespace curb::bft
