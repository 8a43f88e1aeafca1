// MANA IDS tests: feature extraction, k-means, the ensemble detectors
// (one-class SVM, per-substation rules), sampling calibration, and the
// detection-quality scoreboard on synthetic captures.
#include <gtest/gtest.h>

#include <bit>

#include "mana/mana.hpp"
#include "mana/scoreboard.hpp"
#include "sim/rng.hpp"

namespace spire::mana {
namespace {

net::PcapRecord data_frame(sim::Time t, std::uint32_t src_id,
                           std::uint32_t dst_id, std::uint16_t dst_port,
                           std::size_t payload = 200) {
  net::Datagram d;
  d.src_ip = net::IpAddress{0x0A000000u + src_id};
  d.dst_ip = net::IpAddress{0x0A000000u + dst_id};
  d.src_port = 5000;
  d.dst_port = dst_port;
  d.payload.assign(payload, 0xAB);
  net::EthernetFrame frame{net::MacAddress::from_id(src_id),
                           net::MacAddress::from_id(dst_id),
                           net::EtherType::kIpv4, d.encode()};
  return net::PcapRecord{t, net::NetworkLabels::instance().intern("test"),
                         std::move(frame)};
}

net::FrameSummary data_summary(sim::Time t, std::uint32_t src_id,
                               std::uint32_t dst_id, std::uint16_t dst_port,
                               std::size_t payload = 200) {
  const auto rec = data_frame(t, src_id, dst_id, dst_port, payload);
  return net::FrameSummary::summarize(rec.time, rec.frame);
}

net::PcapRecord arp_frame(sim::Time t, std::uint32_t claimed_ip_id,
                          std::uint32_t mac_id, net::ArpOp op) {
  net::ArpPacket arp;
  arp.op = op;
  arp.sender_ip = net::IpAddress{0x0A000000u + claimed_ip_id};
  arp.sender_mac = net::MacAddress::from_id(mac_id);
  // Requests broadcast; replies are unicast, as on a real LAN.
  const net::MacAddress dst = op == net::ArpOp::kRequest
                                  ? net::MacAddress::broadcast()
                                  : net::MacAddress::from_id(1);
  net::EthernetFrame frame{net::MacAddress::from_id(mac_id), dst,
                           net::EtherType::kArp, arp.encode()};
  return net::PcapRecord{t, net::NetworkLabels::instance().intern("test"),
                         std::move(frame)};
}

/// SCADA-like baseline: two devices polled regularly plus ARP churn.
void feed_baseline(Mana& mana, sim::Time from, sim::Time until,
                   sim::Rng& rng) {
  for (sim::Time t = from; t < until; t += 50 * sim::kMillisecond) {
    mana.on_capture(data_frame(t, 1, 2, 502, 60 + rng.uniform(0, 20)));
    mana.on_capture(data_frame(t + 5 * sim::kMillisecond, 2, 1, 5000,
                               80 + rng.uniform(0, 20)));
  }
}

TEST(Features, WindowsAggregateAndReset) {
  std::vector<WindowFeatures> windows;
  FeatureExtractor extractor(1 * sim::kSecond,
                             [&](const WindowFeatures& w) { windows.push_back(w); });
  extractor.ingest(data_summary(100 * sim::kMillisecond, 1, 2, 502));
  extractor.ingest(data_summary(200 * sim::kMillisecond, 1, 2, 502));
  extractor.ingest(data_summary(1500 * sim::kMillisecond, 1, 2, 502));
  extractor.flush_until(3 * sim::kSecond);

  // Quiet networks still emit (empty) windows, so MANA can score them.
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0].values[0], 2.0);  // frames in first window
  EXPECT_EQ(windows[1].values[0], 1.0);
  EXPECT_EQ(windows[2].values[0], 0.0);  // empty trailing window
  EXPECT_EQ(windows[0].values.size(), WindowFeatures::kDim);
  EXPECT_FALSE(windows[0].sampled());
  EXPECT_FALSE(windows[0].saturated);
}

TEST(Features, CountsArpAndBroadcast) {
  std::vector<WindowFeatures> windows;
  FeatureExtractor extractor(1 * sim::kSecond,
                             [&](const WindowFeatures& w) { windows.push_back(w); });
  const auto arp = [](sim::Time t, std::uint32_t ip, std::uint32_t mac,
                      net::ArpOp op) {
    const auto rec = arp_frame(t, ip, mac, op);
    return net::FrameSummary::summarize(rec.time, rec.frame);
  };
  extractor.ingest(arp(10, 1, 1, net::ArpOp::kRequest));
  extractor.ingest(arp(20, 2, 2, net::ArpOp::kReply));
  extractor.ingest(arp(30, 3, 3, net::ArpOp::kRequest));
  extractor.flush_until(2 * sim::kSecond);
  ASSERT_EQ(windows.size(), 2u);  // the ARP window + one empty window
  EXPECT_EQ(windows[0].values[4], 2.0);  // arp requests
  EXPECT_EQ(windows[0].values[5], 1.0);  // arp replies
  EXPECT_EQ(windows[0].values[6], 2.0);  // broadcasts (requests)
}

TEST(Features, SamplingWeightsKeepAdditiveFeaturesCalibrated) {
  std::vector<WindowFeatures> windows;
  FeatureExtractor extractor(1 * sim::kSecond,
                             [&](const WindowFeatures& w) { windows.push_back(w); });
  // 10 captured frames, each representing 8 mirrored frames (weight
  // folding under 1-in-8 sampling).
  for (int i = 0; i < 10; ++i) {
    auto s = data_summary(i * 10 * sim::kMillisecond, 1, 2, 502, 100);
    s.weight = 8;
    extractor.ingest(s);
  }
  extractor.flush_until(2 * sim::kSecond);
  ASSERT_GE(windows.size(), 1u);
  EXPECT_EQ(windows[0].values[0], 80.0);  // weighted frame count
  EXPECT_TRUE(windows[0].sampled());
  EXPECT_EQ(windows[0].sampled_weight, 70u);  // 80 represented − 10 captured
  EXPECT_EQ(extractor.stats().sampled_windows, 1u);
}

TEST(Features, FlatTablesSaturateExplicitly) {
  FeatureConfig config;
  config.max_src_macs = 8;
  std::vector<WindowFeatures> windows;
  FeatureExtractor extractor(1 * sim::kSecond,
                             [&](const WindowFeatures& w) { windows.push_back(w); },
                             config);
  for (std::uint32_t i = 0; i < 64; ++i) {
    extractor.ingest(data_summary(10 + i, 100 + i, 2, 502, 50));
  }
  extractor.flush_until(2 * sim::kSecond);
  ASSERT_GE(windows.size(), 1u);
  EXPECT_TRUE(windows[0].saturated);
  EXPECT_GT(extractor.stats().saturated_inserts, 0u);
  // The distinct count is an explicit lower bound, not a lie.
  EXPECT_LE(windows[0].values[7], 64.0);
  EXPECT_GT(windows[0].values[7], 0.0);
}

TEST(KMeans, SeparatesObviousClusters) {
  sim::Rng rng(5);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 50; ++i) {
    points.push_back({rng.normal(0, 0.1), rng.normal(0, 0.1)});
    points.push_back({rng.normal(10, 0.1), rng.normal(10, 0.1)});
  }
  const auto model = kmeans_fit(points, 2, rng);
  ASSERT_EQ(model.centroids.size(), 2u);
  const double d0 = model.nearest_distance({0, 0});
  const double d10 = model.nearest_distance({10, 10});
  EXPECT_LT(d0, 1.0);
  EXPECT_LT(d10, 1.0);
  EXPECT_GT(model.nearest_distance({5, 5}), 3.0);
}

TEST(KMeans, HandlesFewerPointsThanClusters) {
  sim::Rng rng(5);
  const std::vector<std::vector<double>> points = {{1, 1}, {2, 2}};
  const auto model = kmeans_fit(points, 8, rng);
  EXPECT_LE(model.centroids.size(), 2u);
  EXPECT_THROW(kmeans_fit({}, 2, rng), std::invalid_argument);
}

TEST(OcSvm, SeparatesInliersFromOutliers) {
  sim::Rng rng(7);
  std::vector<std::vector<double>> train;
  for (int i = 0; i < 200; ++i) {
    train.push_back({rng.normal(0, 1), rng.normal(0, 1), rng.normal(0, 1)});
  }
  OcSvm svm(3);
  svm.fit(train);
  EXPECT_TRUE(svm.trained());
  EXPECT_GT(svm.threshold(), 0.0);
  // In-distribution points stay inside the learned radius.
  const std::vector<double> inlier = {0.2, -0.4, 0.6};
  EXPECT_FALSE(svm.anomalous(inlier));
  // A point far outside the training cloud scores past the threshold.
  const std::vector<double> outlier = {30.0, -25.0, 40.0};
  EXPECT_TRUE(svm.anomalous(outlier));
}

TEST(Mana, QuietOnBaselineTraffic) {
  ManaConfig config;
  config.network = "ops";
  Mana mana(config);
  sim::Rng rng(1);
  feed_baseline(mana, 0, 30 * sim::kSecond, rng);
  mana.flush_until(30 * sim::kSecond);
  mana.finish_training();

  feed_baseline(mana, 30 * sim::kSecond, 60 * sim::kSecond, rng);
  mana.flush_until(60 * sim::kSecond);
  EXPECT_GT(mana.windows_scored(), 20u);
  // Near-zero false positives on in-distribution traffic.
  EXPECT_LE(mana.windows_anomalous(), mana.windows_scored() / 10);
  EXPECT_TRUE(mana.alerts().empty());
}

TEST(Mana, DetectsPortScan) {
  ManaConfig config;
  config.network = "ops";
  Mana mana(config);
  sim::Rng rng(1);
  feed_baseline(mana, 0, 30 * sim::kSecond, rng);
  mana.flush_until(30 * sim::kSecond);
  mana.finish_training();

  // Attacker sweeps 100 ports within one window.
  const sim::Time t0 = 31 * sim::kSecond;
  for (std::uint16_t p = 0; p < 100; ++p) {
    mana.on_capture(data_frame(t0 + p * 100, 66, 2, 8000 + p, 10));
  }
  feed_baseline(mana, 31 * sim::kSecond, 35 * sim::kSecond, rng);
  mana.flush_until(35 * sim::kSecond);

  const Alert* scan = nullptr;
  for (const auto& alert : mana.alerts()) {
    if (alert.kind == AlertKind::kPortScan) scan = &alert;
  }
  ASSERT_NE(scan, nullptr);
  // Rule alerts are attributed to the rules detector, and the deferred
  // detail names the scanning source.
  EXPECT_EQ(scan->detector, DetectorId::kRules);
  EXPECT_NE(scan->votes & vote_bit(DetectorId::kRules), 0);
  EXPECT_NE(scan->detail().find("10.0.0.66"), std::string::npos);
}

TEST(Mana, DetectsArpBindingChange) {
  ManaConfig config;
  config.network = "ops";
  Mana mana(config);
  sim::Rng rng(1);
  // Baseline includes legitimate ARP from host 1 (mac 1) and 2 (mac 2).
  mana.on_capture(arp_frame(100, 1, 1, net::ArpOp::kReply));
  mana.on_capture(arp_frame(200, 2, 2, net::ArpOp::kReply));
  feed_baseline(mana, 0, 30 * sim::kSecond, rng);
  mana.flush_until(30 * sim::kSecond);
  mana.finish_training();

  // Attacker (mac 66) claims host 2's IP: classic poisoning.
  mana.on_capture(arp_frame(31 * sim::kSecond, 2, 66, net::ArpOp::kReply));
  const Alert* arp = nullptr;
  for (const auto& alert : mana.alerts()) {
    if (alert.kind == AlertKind::kArpBindingChange) arp = &alert;
  }
  ASSERT_NE(arp, nullptr);
  EXPECT_NE(arp->detail().find("10.0.0.2"), std::string::npos);
  EXPECT_NE(arp->detail().find("moved from"), std::string::npos);
}

TEST(Mana, DetectsTrafficFlood) {
  ManaConfig config;
  config.network = "ops";
  Mana mana(config);
  sim::Rng rng(1);
  feed_baseline(mana, 0, 30 * sim::kSecond, rng);
  mana.flush_until(30 * sim::kSecond);
  mana.finish_training();

  const sim::Time t0 = 31 * sim::kSecond;
  for (int i = 0; i < 2000; ++i) {
    mana.on_capture(data_frame(t0 + i * 400, 66, 2, 502, 1000));
  }
  mana.flush_until(34 * sim::kSecond);

  const Alert* flood = nullptr;
  const Alert* anomaly = nullptr;
  for (const auto& alert : mana.alerts()) {
    if (alert.kind == AlertKind::kTrafficFlood) flood = &alert;
    if (alert.kind == AlertKind::kAnomalousWindow) anomaly = &alert;
  }
  ASSERT_NE(flood, nullptr);
  ASSERT_NE(anomaly, nullptr);
  // The ensemble window alert carries its vote coalition: the flood is
  // so far out of distribution that the statistical members agree with
  // the rules.
  EXPECT_EQ(anomaly->detector, DetectorId::kEnsemble);
  EXPECT_GE(std::popcount(anomaly->votes), 2);
}

TEST(Mana, DetectsFloodThroughSamplingTap) {
  // Same flood, but pushed through a small CaptureTap ring that is
  // forced deep into 1-in-N sampling: the weighted features must stay
  // calibrated enough that the flood still trips the detectors, and
  // every mirrored frame must be accounted for.
  ManaConfig config;
  config.network = "ops";
  config.tap.ring_slots = 256;
  Mana mana(config);
  sim::Rng rng(1);
  feed_baseline(mana, 0, 30 * sim::kSecond, rng);
  mana.flush_until(30 * sim::kSecond);
  mana.finish_training();

  net::CaptureTap& tap = mana.tap();
  const sim::Time t0 = 31 * sim::kSecond;
  const std::uint64_t processed_before = mana.stats().frames_processed;
  for (int burst = 0; burst < 10; ++burst) {
    // Each burst overfills the ring several times over before MANA's
    // next out-of-band poll.
    for (int i = 0; i < 1000; ++i) {
      const auto rec =
          data_frame(t0 + burst * 100 * sim::kMillisecond + i * 10, 66, 2,
                     502, 1000);
      tap.capture(rec.time, rec.frame);
    }
    mana.poll(t0 + (burst + 1) * 100 * sim::kMillisecond);
  }
  mana.poll(34 * sim::kSecond);

  const auto& stats = tap.stats();
  EXPECT_GT(stats.frames_sampled_out, 0u);  // sampling engaged
  // Accounting identity: nothing vanished silently. Drained weights are
  // exactly the frames the pipeline processed since the flood began.
  const std::uint64_t drained_weight =
      mana.stats().frames_processed - processed_before;
  EXPECT_EQ(stats.frames_mirrored,
            drained_weight + tap.queued_weight() + tap.pending_weight() +
                stats.frames_dropped);
  // Weight folding keeps the windowed frame count calibrated, so the
  // flood still trips the detectors despite heavy sampling.
  bool flood = false;
  for (const auto& alert : mana.alerts()) {
    if (alert.kind == AlertKind::kTrafficFlood) flood = true;
  }
  EXPECT_TRUE(flood);
  EXPECT_GT(mana.extractor_stats().sampled_windows, 0u);
}

TEST(Mana, DetectsNewSourceMac) {
  ManaConfig config;
  config.network = "ops";
  Mana mana(config);
  sim::Rng rng(1);
  feed_baseline(mana, 0, 30 * sim::kSecond, rng);
  mana.flush_until(30 * sim::kSecond);
  mana.finish_training();

  // A device never seen in baseline sends one ordinary frame.
  mana.on_capture(data_frame(31 * sim::kSecond, 77, 2, 502, 60));
  bool new_mac = false;
  for (const auto& alert : mana.alerts()) {
    if (alert.kind == AlertKind::kNewSourceMac) new_mac = true;
  }
  EXPECT_TRUE(new_mac);
}

TEST(Mana, TrainingRequiredBeforeScoring) {
  ManaConfig config;
  Mana mana(config);
  EXPECT_FALSE(mana.trained());
  EXPECT_THROW(mana.finish_training(), std::runtime_error);  // no windows
}

TEST(Mana, AlertsAreRateLimitedPerKind) {
  ManaConfig config;
  config.network = "ops";
  Mana mana(config);
  sim::Rng rng(1);
  // Legitimate binding for IP .1 learned during training.
  mana.on_capture(arp_frame(100, 1, 1, net::ArpOp::kReply));
  feed_baseline(mana, 0, 30 * sim::kSecond, rng);
  mana.flush_until(30 * sim::kSecond);
  mana.finish_training();

  // Two binding flips within the same window => one alert.
  mana.on_capture(arp_frame(31 * sim::kSecond, 1, 66, net::ArpOp::kReply));
  mana.on_capture(arp_frame(31 * sim::kSecond + 100, 1, 67, net::ArpOp::kReply));
  std::size_t arp_alerts = 0;
  for (const auto& alert : mana.alerts()) {
    if (alert.kind == AlertKind::kArpBindingChange) ++arp_alerts;
  }
  EXPECT_EQ(arp_alerts, 1u);
}

// ---- scoreboard -------------------------------------------------------------

Alert make_alert(sim::Time at, AlertKind kind, DetectorId detector,
                 std::uint8_t votes) {
  Alert a;
  a.at = at;
  a.network = net::NetworkLabels::instance().intern("test");
  a.kind = kind;
  a.detector = detector;
  a.votes = votes;
  return a;
}

TEST(ScoreBoard, MatchesHandComputedReference) {
  // Labeled fixture: two attacks, four alerts. Hand computation:
  //   attack A [10s, 12s] expecting port-scan:
  //     alert 1 (10.5s, port-scan, rules)        -> TP, latency 0.5s
  //     alert 2 (11s,  anomalous-window, kmeans+rules ensemble) -> FP
  //        (kind not in A's expected list, outside B)
  //   attack B [20s, 25s] expecting any kind:
  //     alert 3 (26s, traffic-flood, rules)      -> TP (within 2s grace)
  //   alert 4 (40s, port-scan, rules)            -> FP (no attack)
  // Ensemble:  TP=2 FP=2 -> precision 0.5; detected 2/2 -> recall 1.0.
  // Rules row: TP=2 FP=2 (voted on alerts 1,2,3,4) -> precision 0.5.
  // KMeans row: TP=0 FP=1 (only voted on alert 2)  -> precision 0.0,
  //   recall 0/2 = 0.
  ScoreBoard board;
  board.attack_begin("A", 10 * sim::kSecond, {AlertKind::kPortScan});
  board.attack_end("A", 12 * sim::kSecond);
  board.attack_begin("B", 20 * sim::kSecond);
  board.attack_end("B", 25 * sim::kSecond);

  const auto rules_bit = vote_bit(DetectorId::kRules);
  const auto km_bit = vote_bit(DetectorId::kKMeans);
  board.on_alert(make_alert(10 * sim::kSecond + 500 * sim::kMillisecond,
                            AlertKind::kPortScan, DetectorId::kRules,
                            rules_bit));
  board.on_alert(make_alert(11 * sim::kSecond, AlertKind::kAnomalousWindow,
                            DetectorId::kEnsemble, rules_bit | km_bit));
  board.on_alert(make_alert(26 * sim::kSecond, AlertKind::kTrafficFlood,
                            DetectorId::kRules, rules_bit));
  board.on_alert(make_alert(40 * sim::kSecond, AlertKind::kPortScan,
                            DetectorId::kRules, rules_bit));
  board.finalize(60 * sim::kSecond);

  const auto& ensemble = board.ensemble();
  EXPECT_EQ(ensemble.true_positives, 2u);
  EXPECT_EQ(ensemble.false_positives, 2u);
  EXPECT_DOUBLE_EQ(ensemble.precision(), 0.5);
  EXPECT_DOUBLE_EQ(ensemble.recall(), 1.0);
  EXPECT_NEAR(ensemble.f1(), 2 * 0.5 * 1.0 / 1.5, 1e-12);

  const auto& rules = board.score(DetectorId::kRules);
  EXPECT_EQ(rules.true_positives, 2u);
  EXPECT_EQ(rules.false_positives, 2u);
  EXPECT_DOUBLE_EQ(rules.recall(), 1.0);

  const auto& kmeans = board.score(DetectorId::kKMeans);
  EXPECT_EQ(kmeans.true_positives, 0u);
  EXPECT_EQ(kmeans.false_positives, 1u);
  EXPECT_DOUBLE_EQ(kmeans.precision(), 0.0);
  EXPECT_DOUBLE_EQ(kmeans.recall(), 0.0);

  ASSERT_EQ(board.outcomes().size(), 2u);
  const auto& a = board.outcomes()[0];
  EXPECT_TRUE(a.detected);
  EXPECT_EQ(a.latency, 500 * sim::kMillisecond);
  EXPECT_EQ(a.first_kind, AlertKind::kPortScan);
  const auto& b = board.outcomes()[1];
  EXPECT_TRUE(b.detected);
  EXPECT_EQ(b.latency, 6 * sim::kSecond);
  EXPECT_DOUBLE_EQ(board.mean_latency_us(),
                   (500'000.0 + 6'000'000.0) / 2.0);
  EXPECT_EQ(board.max_latency_us(), 6u * sim::kSecond);
}

TEST(ScoreBoard, MissedAttackCountsAgainstRecall) {
  ScoreBoard board;
  board.add_label(AttackLabel{"quiet", 5 * sim::kSecond, 6 * sim::kSecond, {}});
  board.finalize(10 * sim::kSecond);
  EXPECT_EQ(board.ensemble().attacks_missed, 1u);
  EXPECT_DOUBLE_EQ(board.ensemble().recall(), 0.0);
  // No alerts at all: precision stays vacuous (1.0), recall is the
  // number that flags the failure.
  EXPECT_DOUBLE_EQ(board.ensemble().precision(), 1.0);
  ASSERT_EQ(board.outcomes().size(), 1u);
  EXPECT_FALSE(board.outcomes()[0].detected);
}

TEST(Alert, DetailFormattingIsDeferredAndExact) {
  Alert a;
  a.kind = AlertKind::kArpBindingChange;
  a.args = {0x0A000002u, net::FrameSummary::mac_key(net::MacAddress::from_id(2)),
            net::FrameSummary::mac_key(net::MacAddress::from_id(66))};
  const std::string text = a.detail();
  EXPECT_NE(text.find("10.0.0.2"), std::string::npos);
  EXPECT_NE(text.find("moved from"), std::string::npos);

  Alert scan;
  scan.kind = AlertKind::kPortScan;
  scan.args = {0x0A000042u, 100, 15};
  EXPECT_EQ(scan.detail(),
            "10.0.0.66 probed 100 distinct ports (threshold 15)");
}

}  // namespace
}  // namespace spire::mana
