#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "curb/bft/message.hpp"
#include "curb/obs/observatory.hpp"
#include "curb/sim/simulator.hpp"
#include "curb/sim/time.hpp"

namespace curb::bft {

/// Byzantine behaviour injected into a replica (paper Section IV-A):
///  - kHonest: follows the protocol.
///  - kSilent: sends nothing (crashed or withholding — the paper's
///    experiment 1/2 byzantine nodes that "do not respond within timeout").
///  - kLazy: delays every outgoing message by a configured amount (the
///    paper's experiment 3 nodes with response times in (200, 500) ms).
///  - kEquivocate: as leader, proposes conflicting payloads to different
///    peers; as follower, votes for a corrupted digest.
///  - kSelectiveSilent: withholds messages from even-indexed peers only —
///    enough honest pairs still talk for the protocol to make progress,
///    but naive "is it silent?" detectors see conflicting evidence.
///  - kStaleViewSpam: participates honestly but floods peers with
///    view-change votes for views far ahead of the current one, probing
///    the view-change vote bookkeeping (curb::fault).
enum class Behavior : std::uint8_t {
  kHonest,
  kSilent,
  kLazy,
  kEquivocate,
  kSelectiveSilent,
  kStaleViewSpam,
};

/// Which vote rule a replica runs. The paper uses PBFT ("other BFT
/// protocols including Tendermint and HotStuff can also be applied"); this
/// library ships all-to-all PBFT voting and leader-aggregated HotStuff-style
/// voting with linear per-round communication.
enum class ConsensusEngine : std::uint8_t { kPbft, kHotstuff };

[[nodiscard]] constexpr std::string_view to_string(ConsensusEngine e) {
  switch (e) {
    case ConsensusEngine::kPbft: return "pbft";
    case ConsensusEngine::kHotstuff: return "hotstuff";
  }
  return "?";
}

struct ReplicaConfig {
  /// Vote rule; everything else about the replica is shared.
  ConsensusEngine engine = ConsensusEngine::kPbft;
  std::uint32_t replica_index = 0;
  std::size_t group_size = 4;  // n = 3f + 1
  /// Commit timeout before initiating a view change.
  sim::SimTime view_change_timeout = sim::SimTime::millis(500);
  Behavior behavior = Behavior::kHonest;
  /// Extra delay applied to every outgoing message when behavior == kLazy.
  sim::SimTime lazy_delay = sim::SimTime::millis(300);
  /// Starting view; leader of view v is replica v % group_size. Curb uses
  /// this to seat the OP-designated group leader at startup.
  std::uint64_t initial_view = 0;
  /// Executed slots older than this many sequences behind the execution
  /// frontier are garbage-collected (checkpoint-lite; keeps long-running
  /// replicas bounded). 0 disables collection.
  std::uint64_t gc_window = 64;
  /// Observability (nullptr disables). `span_track` names the trace row the
  /// replica's spans render on (one per controller); `span_prefix`
  /// distinguishes Curb's two consensus layers ("intra_pbft" /
  /// "final_pbft") in span names and metric labels; `span_attrs` rides on
  /// every span (group id, controller id, ...).
  obs::Observatory* obs = nullptr;
  std::string span_track;
  std::string span_prefix = "pbft";
  obs::Attrs span_attrs;
  /// Optional application check of a proposed payload (e.g. transaction
  /// signature verification), run once per proposal after the digest check.
  /// A replica never adopts — and never votes for — a payload this rejects.
  /// Leave empty to accept every well-digested payload (the default).
  std::function<bool(const std::vector<std::uint8_t>& payload)> validate_payload;
};

/// One BFT replica, reused for both consensus layers of Curb: Intra-PBFT
/// (payload = txList) and Final-PBFT (payload = block). Transport-agnostic:
/// messages leave through a send callback and arrive through on_message();
/// committed payloads are delivered strictly in sequence order.
///
/// The engines share everything but their vote rule: proposal, behaviour
/// injection, in-order execution with GC, timeouts, the view change (timeout
/// -> VIEW-CHANGE carrying locked entries -> NEW-VIEW from the next leader),
/// slot spans and metrics.
///  - PBFT: pre-prepare / prepare / commit, every replica votes to every
///    replica (O(n²) messages per decision).
///  - HotStuff (basic, non-chained): the leader drives three vote phases
///    (prepare / pre-commit / commit); replicas vote TO THE LEADER ONLY and
///    the leader broadcasts a quorum certificate per phase (O(n) messages).
///    QCs carry voter-id lists in place of threshold signatures.
class Replica final {
 public:
  using Config = ReplicaConfig;
  /// Send `msg` to replica `dest` (index within the group).
  using SendFn = std::function<void(std::uint32_t dest, const PbftMessage& msg)>;
  /// A payload committed at `sequence` (called in sequence order).
  using DeliverFn = std::function<void(std::uint64_t sequence,
                                       const std::vector<std::uint8_t>& payload)>;
  /// View changed to `new_view` (leader = new_view % group_size).
  using ViewChangeFn = std::function<void(std::uint64_t new_view)>;

  Replica(Config config, sim::Simulator& sim, SendFn send, DeliverFn deliver);
  /// Cancels all outstanding timers: replicas are torn down and rebuilt on
  /// Curb reassignment, and a stale timer firing into freed state would be
  /// a use-after-free.
  ~Replica();

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// Leader entry point: assign the next sequence number and broadcast the
  /// proposal. Throws std::logic_error when called on a non-leader.
  std::uint64_t propose(std::vector<std::uint8_t> payload);

  /// Feed an incoming message from peer replicas. Messages of the other
  /// engine are ignored.
  void on_message(const PbftMessage& msg);

  /// Application-triggered view change (e.g. Curb followers observing a
  /// client request the leader refuses to sequence). No-op while a view
  /// change is already in flight.
  void force_view_change() { start_view_change(); }

  [[nodiscard]] std::uint64_t view() const { return view_; }
  [[nodiscard]] std::uint32_t leader_index() const {
    return static_cast<std::uint32_t>(view_ % config_.group_size);
  }
  [[nodiscard]] bool is_leader() const { return leader_index() == config_.replica_index; }
  [[nodiscard]] std::uint32_t index() const { return config_.replica_index; }
  [[nodiscard]] std::size_t f() const { return (config_.group_size - 1) / 3; }
  /// Next sequence this replica expects to execute.
  [[nodiscard]] std::uint64_t next_execute() const { return next_exec_; }

  /// Candidate views with outstanding view-change votes (all > view() —
  /// adopt_new_view prunes everything at or below the installed view).
  [[nodiscard]] std::vector<std::uint64_t> pending_view_change_views() const {
    std::vector<std::uint64_t> views;
    views.reserve(view_change_votes_.size());
    for (const auto& [v, votes] : view_change_votes_) views.push_back(v);
    return views;
  }

  void set_behavior(Behavior b) { config_.behavior = b; }
  [[nodiscard]] Behavior behavior() const { return config_.behavior; }
  void set_on_view_change(ViewChangeFn fn) { on_view_change_ = std::move(fn); }

 private:
  /// Progress of a slot through its vote rule. kPrepared is HotStuff's
  /// prepare QC; kLocked is what a view change carries over (a PBFT
  /// prepared certificate, a HotStuff pre-commit QC).
  enum class Stage : std::uint8_t { kOpen, kPrepared, kLocked, kCommitted };

  struct SlotState {
    std::optional<crypto::Hash256> digest;  // accepted proposal digest
    std::vector<std::uint8_t> payload;
    // PBFT collects prepare and commit votes on every replica; HotStuff's
    // leader aggregates one vote set per phase.
    std::set<std::uint32_t> prepare_votes;
    std::set<std::uint32_t> precommit_votes;
    std::set<std::uint32_t> commit_votes;
    Stage stage = Stage::kOpen;
    bool executed = false;
    sim::EventHandle timeout;
    // Observability: the slot span covers accept -> execute; the phase span
    // is the currently-open sub-phase (prepare, then commit).
    obs::SpanId span;
    obs::SpanId phase_span;
    sim::SimTime accepted_at;
    sim::SimTime prepared_at;
  };

  // ---- shared core ----
  void send_to(std::uint32_t dest, PbftMessage msg);
  void broadcast(const PbftMessage& msg);
  void lead(std::uint64_t sequence, std::vector<std::uint8_t> payload);
  [[nodiscard]] bool accept_proposal(const PbftMessage& msg);
  void commit(SlotState& s);
  void try_execute();
  void arm_timeout(std::uint64_t sequence);
  void start_view_change();
  void send_view_change(std::uint64_t view);
  void handle_view_change(const PbftMessage& msg);
  void handle_view_change_quorum(std::uint64_t candidate_view);
  void handle_new_view(const PbftMessage& msg);
  void adopt_new_view(std::uint64_t new_view,
                      const std::vector<PbftMessage::PreparedEntry>& prepared);
  [[nodiscard]] std::size_t quorum() const { return 2 * f() + 1; }
  [[nodiscard]] SlotState& slot(std::uint64_t sequence) { return slots_[sequence]; }
  /// A message of this replica in its current view.
  [[nodiscard]] PbftMessage message(PbftMessage::Type type, std::uint64_t sequence,
                                    const crypto::Hash256& digest = {}) const;
  [[nodiscard]] PbftMessage::Type proposal_type() const {
    return config_.engine == ConsensusEngine::kPbft ? PbftMessage::Type::kPrePrepare
                                                    : PbftMessage::Type::kProposal;
  }

  // ---- PBFT vote rule ----
  void pbft_on_message(const PbftMessage& msg);
  void pbft_check_prepared(std::uint64_t sequence);
  void pbft_check_committed(std::uint64_t sequence);

  // ---- HotStuff vote rule ----
  void hotstuff_on_message(const PbftMessage& msg);
  void hotstuff_on_vote(const PbftMessage& msg);
  void hotstuff_on_qc(const PbftMessage& msg);
  [[nodiscard]] bool qc_valid(const PbftMessage& msg) const;

  // Observability hooks. The inline wrappers keep the disabled path to one
  // predictable pointer test on the consensus hot path; the _impl bodies
  // live out of line in replica.cpp.
  [[nodiscard]] bool tracing() const {
    return config_.obs != nullptr && config_.obs->tracer.enabled();
  }
  void obs_slot_accepted(std::uint64_t sequence, SlotState& s) {
    if (config_.obs != nullptr) obs_slot_accepted_impl(sequence, s);
  }
  void obs_slot_prepared(SlotState& s) {
    if (config_.obs != nullptr) obs_slot_prepared_impl(s);
  }
  void obs_slot_committed(SlotState& s) {
    if (config_.obs != nullptr) obs_slot_committed_impl(s);
  }
  void obs_slot_executed(SlotState& s) {
    if (config_.obs != nullptr) obs_slot_executed_impl(s);
  }
  void obs_slot_reset(SlotState& s) {
    if (config_.obs != nullptr) obs_slot_reset_impl(s);
  }
  void obs_view_installed(std::uint64_t new_view) {
    if (config_.obs != nullptr) obs_view_installed_impl(new_view);
  }
  void obs_slot_accepted_impl(std::uint64_t sequence, SlotState& s);
  void obs_slot_prepared_impl(SlotState& s);
  void obs_slot_committed_impl(SlotState& s);
  void obs_slot_executed_impl(SlotState& s);
  void obs_slot_reset_impl(SlotState& s);
  void obs_view_installed_impl(std::uint64_t new_view);

  Config config_;
  sim::Simulator& sim_;
  SendFn send_;
  DeliverFn deliver_;
  ViewChangeFn on_view_change_;

  // Cached instrument handles, resolved once at construction.
  obs::Counter* view_changes_metric_ = nullptr;
  obs::Counter* timeouts_metric_ = nullptr;
  obs::Histogram* prepare_us_ = nullptr;
  obs::Histogram* commit_us_ = nullptr;
  obs::Histogram* slot_us_ = nullptr;

  std::uint64_t view_;
  std::uint64_t next_seq_ = 1;   // leader's next proposal sequence
  std::uint64_t next_exec_ = 1;  // next sequence to execute
  std::map<std::uint64_t, SlotState> slots_;
  // View-change bookkeeping: votes per candidate view.
  std::map<std::uint64_t, std::map<std::uint32_t, std::vector<PbftMessage::PreparedEntry>>>
      view_change_votes_;
  bool view_change_in_progress_ = false;
};

}  // namespace curb::bft
