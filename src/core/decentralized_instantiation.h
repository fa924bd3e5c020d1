// The framework's decentralized instantiation (paper Figure 3, Section 5.2).
//
// No master host and no global model: every host keeps a Decentralized
// Model — its own replica of the design-time description, refined only by
// what it can observe itself (reliability of its adjacent links, frequencies
// of events its components receive) — plus a Local Monitor, a Local
// Effector (its AdminComponent), a Decentralized Algorithm (its DecAp
// auction agent), and a Decentralized Analyzer.
//
// Auction sweeps are the paper's DecAp protocol: each host in turn auctions
// its local components to its directly connected neighbors, bids are
// computed from the bidder's partial knowledge, and the winning host's
// admin pulls the component through the ordinary migration protocol. A host
// never uses information about hosts it is not aware of.
#pragma once

#include "algo/decap.h"
#include "core/centralized_instantiation.h"

namespace dif::core {

class DecentralizedInstantiation {
 public:
  struct Config {
    FrameworkConfig base;
    /// A migration must beat staying put by this utility margin.
    double min_gain = 1e-6;
    /// Decentralized Analyzer ratification (paper §5.2: "the analyzer uses
    /// either the voting or the polling protocol"): when enabled, every
    /// auction outcome is put to a vote among the auction's participants,
    /// each judging the move from its own partial model; a majority must
    /// accept before the migration is effected. Polling is not reproduced.
    bool ratify_moves = false;
    /// A participant accepts when its local utility delta >= -tolerance.
    double vote_tolerance = 0.0;
  };

  /// `design` is the design-time description (User Input); it must outlive
  /// the instantiation and must carry a complete initial deployment.
  DecentralizedInstantiation(desi::SystemData& design, Config config);
  ~DecentralizedInstantiation();

  DecentralizedInstantiation(const DecentralizedInstantiation&) = delete;
  DecentralizedInstantiation& operator=(const DecentralizedInstantiation&) =
      delete;

  void start();

  [[nodiscard]] sim::Simulator& simulator() noexcept {
    return substrate_->simulator();
  }
  [[nodiscard]] CentralizedInstantiation& substrate() noexcept {
    return *substrate_;
  }

  /// A host's local model replica (Decentralized Model).
  [[nodiscard]] const desi::SystemData& local_model(model::HostId host) const {
    return *local_models_.at(host);
  }

  /// Drains each host's monitors into its own local model (Local Monitor ->
  /// Decentralized Model). Call between simulator runs.
  void refresh_local_models();

  /// Decentralized Model synchronization (paper §5.2: each host
  /// "synchronizes its local model with the remote hosts of which it is
  /// aware ... by sending streams of data whenever the model is
  /// modified"): every host sends its own measurements — adjacent link
  /// reliabilities and the interaction frequencies its components observed
  /// — to its direct neighbors as __model_sync events over the real
  /// (lossy) network. Receivers merge only origin-owned data, and only
  /// about hosts they are themselves aware of, preserving the paper's
  /// awareness semantics. Returns the number of sync messages sent.
  std::size_t gossip_sync();

  /// One DecAp auction sweep over all hosts using only local knowledge.
  /// Returns the number of migrations initiated (transfers then complete
  /// asynchronously in simulated time).
  std::size_t auction_sweep(std::uint64_t seed = 1);

  /// Cumulative auction statistics.
  [[nodiscard]] const algo::DecApAlgorithm::Stats& stats() const noexcept {
    return stats_;
  }
  /// Ratification statistics (only counted when Config::ratify_moves).
  [[nodiscard]] std::size_t votes_held() const noexcept { return votes_held_; }
  [[nodiscard]] std::size_t votes_rejected() const noexcept {
    return votes_rejected_;
  }

  /// The deployment as actually running (ground truth from architectures).
  [[nodiscard]] model::Deployment runtime_deployment() const {
    return substrate_->runtime_deployment();
  }

 private:
  /// Bid of `bidder` for hosting `component`, from bidder's local knowledge.
  [[nodiscard]] double bid(model::HostId bidder, model::ComponentId component,
                           model::HostId believed_current) const;
  [[nodiscard]] bool fits(model::HostId host,
                          model::ComponentId component) const;
  /// One participant's view of moving `component` from -> to: the utility
  /// delta for interactions between the component and the voter's own
  /// components, judged with the voter's local model.
  [[nodiscard]] double voter_delta(model::HostId voter,
                                   model::ComponentId component,
                                   model::HostId from, model::HostId to) const;
  /// Majority vote among {auctioneer} + participants.
  [[nodiscard]] bool ratify(model::HostId auctioneer,
                            const std::vector<model::HostId>& participants,
                            model::ComponentId component, model::HostId from,
                            model::HostId to);

  void apply_sync(model::HostId receiver, const prism::Event& event);

  desi::SystemData& design_;
  Config config_;
  std::unique_ptr<CentralizedInstantiation> substrate_;
  std::vector<std::unique_ptr<desi::SystemData>> local_models_;
  std::vector<prism::Component*> sync_components_;  // owned by architectures
  algo::DecApAlgorithm::Stats stats_;
  std::size_t votes_held_ = 0;
  std::size_t votes_rejected_ = 0;
};

/// Canonical name of the model-sync endpoint on host `h`.
[[nodiscard]] std::string model_sync_name(model::HostId host);

}  // namespace dif::core
