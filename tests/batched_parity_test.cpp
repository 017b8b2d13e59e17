// Pins the batched inference path to the scalar reference: batched
// predictions must match scalar predict() bitwise, and every search
// strategy must produce identical AttackResult decisions with batched probes
// on and off, on the BGMS regression fixture.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <vector>

#include "attack/campaign.hpp"
#include "attack/evasion.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "nn/lstm.hpp"
#include "data/timeseries.hpp"
#include "data/window.hpp"
#include "domains/bgms/cohort.hpp"
#include "domains/bgms/patient.hpp"
#include "predict/bilstm_forecaster.hpp"

namespace goodones {
namespace {

struct Fixture {
  std::vector<data::Window> windows;
  std::unique_ptr<predict::BiLstmForecaster> model;

  Fixture() {
    bgms::CohortConfig cohort;
    cohort.train_steps = 800;
    cohort.test_steps = 260;
    cohort.seed = 5;
    const auto trace = bgms::generate_patient({bgms::Subset::kA, 1}, cohort);
    const auto train_series = bgms::to_series(trace.train);

    predict::ForecasterConfig config;
    config.hidden = 12;
    config.head_hidden = 8;
    config.epochs = 3;
    config.seed = 33;
    model = std::make_unique<predict::BiLstmForecaster>(
        config, predict::fit_forecaster_scaler(train_series.values, bgms::kCgm,
                                               bgms::kMinGlucose, bgms::kMaxGlucose));
    data::WindowConfig window_config;
    window_config.step = 3;
    model->train(data::make_windows(train_series, window_config));
    windows = data::make_windows(bgms::to_series(trace.test), window_config);
  }
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

void expect_same_decisions(const attack::AttackResult& scalar,
                           const attack::AttackResult& batched) {
  EXPECT_EQ(scalar.success, batched.success);
  EXPECT_EQ(scalar.edits, batched.edits);
  EXPECT_NEAR(scalar.benign_prediction, batched.benign_prediction, 1e-12);
  EXPECT_NEAR(scalar.adversarial_prediction, batched.adversarial_prediction, 1e-12);
  ASSERT_TRUE(scalar.adversarial_features.same_shape(batched.adversarial_features));
  for (std::size_t t = 0; t < scalar.adversarial_features.rows(); ++t) {
    for (std::size_t c = 0; c < scalar.adversarial_features.cols(); ++c) {
      ASSERT_DOUBLE_EQ(scalar.adversarial_features(t, c),
                       batched.adversarial_features(t, c))
          << "t=" << t << " c=" << c;
    }
  }
}

TEST(BatchedParity, PredictBatchMatchesScalarOnBenignWindows) {
  const auto& f = fixture();
  std::vector<nn::Matrix> batch;
  for (std::size_t i = 0; i < std::min<std::size_t>(f.windows.size(), 24); ++i) {
    batch.push_back(f.windows[i].features);
  }
  const auto batched = f.model->predict_batch(batch);
  ASSERT_EQ(batched.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batched[i], f.model->predict(batch[i])) << "window " << i;
  }
}

TEST(BatchedParity, PredictBatchMatchesScalarOnProbeBatches) {
  // Probe-shaped batches: copies of one window with a single edited
  // timestep, exactly what the greedy searches enqueue.
  const auto& f = fixture();
  const nn::Matrix& base = f.windows[7].features;
  for (const std::size_t t : {base.rows() - 1, base.rows() / 2, std::size_t{0}}) {
    std::vector<nn::Matrix> probes(6, base);
    for (std::size_t vi = 0; vi < probes.size(); ++vi) {
      probes[vi](t, bgms::kCgm) = 150.0 + 50.0 * static_cast<double>(vi);
    }
    const auto batched = f.model->predict_batch(probes);
    for (std::size_t vi = 0; vi < probes.size(); ++vi) {
      EXPECT_EQ(batched[vi], f.model->predict(probes[vi])) << "t=" << t << " vi=" << vi;
    }
  }
}

class BatchedParitySweep : public ::testing::TestWithParam<attack::SearchKind> {};

TEST_P(BatchedParitySweep, AttackResultsIdenticalWithAndWithoutBatching) {
  const auto& f = fixture();
  attack::AttackConfig scalar_config;
  scalar_config.search = GetParam();
  scalar_config.batched_probes = false;
  attack::AttackConfig batched_config = scalar_config;
  batched_config.batched_probes = true;

  const attack::EvasionAttack scalar_attack(scalar_config);
  const attack::EvasionAttack batched_attack(batched_config);
  std::size_t attacked = 0;
  for (std::size_t i = 0; i < f.windows.size() && attacked < 20; i += 2, ++attacked) {
    expect_same_decisions(scalar_attack.attack_window(*f.model, f.windows[i]),
                          batched_attack.attack_window(*f.model, f.windows[i]));
  }
  EXPECT_GT(attacked, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllSearchKinds, BatchedParitySweep,
                         ::testing::Values(attack::SearchKind::kOrderedGreedy,
                                           attack::SearchKind::kGreedy,
                                           attack::SearchKind::kBeam,
                                           attack::SearchKind::kGradientGuided));

TEST(BatchedParity, CampaignOutcomesIdenticalWithAndWithoutBatching) {
  const auto& f = fixture();
  attack::CampaignConfig scalar_config;
  scalar_config.window_step = 2;
  scalar_config.attack.batched_probes = false;
  attack::CampaignConfig batched_config = scalar_config;
  batched_config.attack.batched_probes = true;
  batched_config.shard_size = 3;  // sharding must not change outcomes either

  common::ThreadPool pool(4);
  const auto scalar = attack::run_campaign(*f.model, f.windows, scalar_config, pool);
  const auto batched = attack::run_campaign(*f.model, f.windows, batched_config, pool);
  ASSERT_EQ(scalar.size(), batched.size());
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    expect_same_decisions(scalar[i].attack, batched[i].attack);
    EXPECT_EQ(scalar[i].true_state, batched[i].true_state);
    EXPECT_EQ(scalar[i].adversarial_predicted_state, batched[i].adversarial_predicted_state);
  }
}

TEST(BatchedParity, CrossWindowMergedBatchMatchesPerWindowBatches) {
  // The lockstep campaign driver merges several base windows' probe sets
  // into one predict_batch call. Every merged prediction must be bitwise
  // identical to what the same probes produce in per-window calls.
  const auto& f = fixture();
  const std::size_t bases[] = {3, 9, 14};
  const double values[] = {40.0, 120.0, 250.0, 380.0};

  std::vector<std::vector<nn::Matrix>> per_window;
  std::vector<nn::Matrix> merged;
  for (const std::size_t b : bases) {
    ASSERT_LT(b, f.windows.size());
    const nn::Matrix& base = f.windows[b].features;
    std::vector<nn::Matrix> probes;
    for (std::size_t t = base.rows() - 3; t < base.rows(); ++t) {
      for (const double value : values) {
        probes.push_back(base);
        probes.back()(t, 0) = value;
      }
    }
    merged.insert(merged.end(), probes.begin(), probes.end());
    per_window.push_back(std::move(probes));
  }

  const std::vector<double> merged_preds = f.model->predict_batch(merged);
  ASSERT_EQ(merged_preds.size(), merged.size());
  std::size_t offset = 0;
  for (std::size_t w = 0; w < per_window.size(); ++w) {
    const std::vector<double> solo = f.model->predict_batch(per_window[w]);
    for (std::size_t vi = 0; vi < solo.size(); ++vi) {
      EXPECT_EQ(merged_preds[offset + vi], solo[vi]) << "base=" << bases[w] << " vi=" << vi;
    }
    offset += solo.size();
  }
  EXPECT_EQ(offset, merged_preds.size());
}

TEST(BatchedParity, CampaignOutcomesIdenticalWithAndWithoutCrossWindowMerge) {
  const auto& f = fixture();
  attack::CampaignConfig merged_config;
  merged_config.window_step = 2;
  merged_config.attack.batched_probes = true;
  merged_config.shard_size = 4;  // >= 2 windows per shard so lockstep engages
  merged_config.cross_window_probes = true;
  attack::CampaignConfig per_window_config = merged_config;
  per_window_config.cross_window_probes = false;

  common::ThreadPool pool(4);
  const auto merged = attack::run_campaign(*f.model, f.windows, merged_config, pool);
  const auto solo = attack::run_campaign(*f.model, f.windows, per_window_config, pool);
  ASSERT_EQ(merged.size(), solo.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    expect_same_decisions(solo[i].attack, merged[i].attack);
    EXPECT_EQ(solo[i].attack.probes, merged[i].attack.probes) << "window " << i;
    EXPECT_EQ(solo[i].true_state, merged[i].true_state);
    EXPECT_EQ(solo[i].adversarial_predicted_state, merged[i].adversarial_predicted_state);
  }
}

// --- randomized PrefixState property coverage -------------------------------
//
// The fixture tests above pin the batched path on realistic BGMS windows;
// these push the PrefixState/advance/run_batch contract into randomized
// space: for arbitrary (seeded) window lengths, prefix split points and
// batch sizes, resuming from a snapshot must match a fresh run from t = 0
// bitwise. The forward_cached reference is the comparison point for every
// batched entry point.

nn::Matrix random_sequence(std::size_t rows, std::size_t cols, common::Rng& rng) {
  nn::Matrix m(rows, cols);
  for (std::size_t t = 0; t < rows; ++t) {
    for (double& v : m.row(t)) v = rng.uniform(-1.5, 1.5);
  }
  return m;
}

TEST(PrefixStateProperty, AdvanceFromSnapshotMatchesFreshRun) {
  common::Rng rng(0xC0FFEE);
  for (int trial = 0; trial < 60; ++trial) {
    const auto input_dim = static_cast<std::size_t>(rng.uniform_int(1, 5));
    const auto hidden_dim = static_cast<std::size_t>(rng.uniform_int(1, 16));
    const auto seq_len = static_cast<std::size_t>(rng.uniform_int(2, 20));
    const auto split = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(seq_len)));
    const auto batch = static_cast<std::size_t>(rng.uniform_int(1, 7));

    nn::Lstm lstm(input_dim, hidden_dim, rng);

    // Batch of sequences sharing rows [0, split); random tails.
    const nn::Matrix base = random_sequence(seq_len, input_dim, rng);
    std::vector<nn::Matrix> sequences(batch, base);
    for (auto& seq : sequences) {
      for (std::size_t t = split; t < seq_len; ++t) {
        for (double& v : seq.row(t)) v = rng.uniform(-1.5, 1.5);
      }
    }

    // Snapshot after the shared prefix, then batch-resume from it.
    nn::Lstm::PrefixState state = lstm.initial_state();
    if (split > 0) {
      nn::Matrix prefix(split, input_dim);
      for (std::size_t t = 0; t < split; ++t) {
        const auto src = base.row(t);
        std::copy(src.begin(), src.end(), prefix.row(t).begin());
      }
      lstm.advance(state, prefix);
    }
    EXPECT_EQ(state.steps, split);
    const nn::Matrix finals =
        lstm.run_batch(std::span<const nn::Matrix>(sequences), state, split);

    ASSERT_EQ(finals.rows(), batch);
    for (std::size_t b = 0; b < batch; ++b) {
      const nn::Matrix reference = lstm.forward(sequences[b]);
      for (std::size_t h = 0; h < hidden_dim; ++h) {
        EXPECT_EQ(finals(b, h), reference(seq_len - 1, h))
            << "trial=" << trial << " split=" << split << " b=" << b << " h=" << h;
      }
    }
  }
}

TEST(PrefixStateProperty, ChunkedAdvanceMatchesSingleAdvance) {
  // advance() must compose: consuming a sequence in arbitrary random chunks
  // reaches exactly the state of consuming it in one shot.
  common::Rng rng(0xFACADE);
  for (int trial = 0; trial < 40; ++trial) {
    const auto input_dim = static_cast<std::size_t>(rng.uniform_int(1, 4));
    const auto hidden_dim = static_cast<std::size_t>(rng.uniform_int(1, 12));
    const auto seq_len = static_cast<std::size_t>(rng.uniform_int(1, 18));
    nn::Lstm lstm(input_dim, hidden_dim, rng);
    const nn::Matrix sequence = random_sequence(seq_len, input_dim, rng);

    nn::Lstm::PrefixState whole = lstm.initial_state();
    lstm.advance(whole, sequence);

    nn::Lstm::PrefixState chunked = lstm.initial_state();
    std::size_t consumed = 0;
    while (consumed < seq_len) {
      const auto remaining = static_cast<std::int64_t>(seq_len - consumed);
      const auto chunk = static_cast<std::size_t>(rng.uniform_int(1, remaining));
      nn::Matrix block(chunk, input_dim);
      for (std::size_t t = 0; t < chunk; ++t) {
        const auto src = sequence.row(consumed + t);
        std::copy(src.begin(), src.end(), block.row(t).begin());
      }
      lstm.advance(chunked, block);
      consumed += chunk;
    }

    ASSERT_EQ(chunked.steps, whole.steps);
    for (std::size_t h = 0; h < hidden_dim; ++h) {
      // Chunking must be bit-identical: the same additions happen in the
      // same order regardless of how the rows are grouped.
      EXPECT_EQ(chunked.hidden[h], whole.hidden[h]) << "trial=" << trial;
      EXPECT_EQ(chunked.cell[h], whole.cell[h]) << "trial=" << trial;
    }
  }
}

TEST(PrefixStateProperty, FullPrefixReplicatesSnapshot) {
  // first_row == rows(): every sequence is entirely shared; run_batch must
  // return the snapshot state replicated per sequence.
  common::Rng rng(0xBEEF);
  nn::Lstm lstm(3, 8, rng);
  const nn::Matrix base = random_sequence(10, 3, rng);
  std::vector<nn::Matrix> sequences(4, base);

  nn::Lstm::PrefixState state = lstm.initial_state();
  lstm.advance(state, base);
  const nn::Matrix finals =
      lstm.run_batch(std::span<const nn::Matrix>(sequences), state, base.rows());
  ASSERT_EQ(finals.rows(), sequences.size());
  for (std::size_t b = 0; b < sequences.size(); ++b) {
    for (std::size_t h = 0; h < lstm.hidden_dim(); ++h) {
      EXPECT_EQ(finals(b, h), state.hidden[h]);
    }
  }
}

/// Row `got_row` of `got` must equal row `want_row` of `want` bitwise.
void expect_row_bitwise(const nn::Matrix& got, std::size_t got_row, const nn::Matrix& want,
                        std::size_t want_row, const char* what, int trial) {
  for (std::size_t h = 0; h < want.cols(); ++h) {
    EXPECT_EQ(got(got_row, h), want(want_row, h))
        << what << " trial=" << trial << " row=" << want_row << " h=" << h;
  }
}

TEST(PrefixStateProperty, AdvanceRecordingTrailMatchesReference) {
  // Every trail entry is the state after that many rows: hidden and cell
  // must equal the matching rows of the forward_cached reference.
  common::Rng rng(0x7A11);
  for (int trial = 0; trial < 40; ++trial) {
    const auto input_dim = static_cast<std::size_t>(rng.uniform_int(1, 5));
    const auto hidden_dim = static_cast<std::size_t>(rng.uniform_int(1, 16));
    const auto seq_len = static_cast<std::size_t>(rng.uniform_int(1, 20));
    nn::Lstm lstm(input_dim, hidden_dim, rng);
    const nn::Matrix sequence = random_sequence(seq_len, input_dim, rng);
    nn::Lstm::Cache reference;
    lstm.forward_cached(sequence, reference);

    // Record in two chunks so the second resumes from a started state.
    const auto split = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(seq_len)));
    nn::Lstm::PrefixState state = lstm.initial_state();
    std::vector<nn::Lstm::PrefixState> trail;
    for (const auto& [from, to] : {std::pair{std::size_t{0}, split}, std::pair{split, seq_len}}) {
      nn::Matrix chunk(to - from, input_dim);
      for (std::size_t t = from; t < to; ++t) {
        const auto src = sequence.row(t);
        std::copy(src.begin(), src.end(), chunk.row(t - from).begin());
      }
      lstm.advance_recording(state, chunk, trail);
    }

    ASSERT_EQ(trail.size(), seq_len);
    for (std::size_t t = 0; t < seq_len; ++t) {
      EXPECT_EQ(trail[t].steps, t + 1) << "trial=" << trial;
      for (std::size_t h = 0; h < hidden_dim; ++h) {
        EXPECT_EQ(trail[t].hidden[h], reference.hidden(t, h)) << "trial=" << trial << " t=" << t;
        EXPECT_EQ(trail[t].cell[h], reference.cell(t, h)) << "trial=" << trial << " t=" << t;
      }
    }
  }
}

TEST(PrefixStateProperty, FirstStepBatchMatchesReference) {
  common::Rng rng(0x51E9);
  for (int trial = 0; trial < 40; ++trial) {
    const auto input_dim = static_cast<std::size_t>(rng.uniform_int(1, 5));
    const auto hidden_dim = static_cast<std::size_t>(rng.uniform_int(1, 16));
    const auto rows = static_cast<std::size_t>(rng.uniform_int(1, 9));
    nn::Lstm lstm(input_dim, hidden_dim, rng);
    const nn::Matrix firsts = random_sequence(rows, input_dim, rng);

    const nn::Matrix batched = lstm.first_step_batch(firsts);
    ASSERT_EQ(batched.rows(), rows);
    for (std::size_t r = 0; r < rows; ++r) {
      nn::Matrix one(1, input_dim);
      std::copy(firsts.row(r).begin(), firsts.row(r).end(), one.row(0).begin());
      expect_row_bitwise(batched, r, lstm.forward(one), 0, "first_step_batch", trial);
    }
  }
}

TEST(PrefixStateProperty, RunBatchMultiFromDifferentBasesMatchesReference) {
  // One packed call spanning several prefix clusters: each sequence
  // resumes from its OWN base's snapshot after `split` rows.
  common::Rng rng(0x3B17);
  for (int trial = 0; trial < 40; ++trial) {
    const auto input_dim = static_cast<std::size_t>(rng.uniform_int(1, 5));
    const auto hidden_dim = static_cast<std::size_t>(rng.uniform_int(1, 16));
    const auto seq_len = static_cast<std::size_t>(rng.uniform_int(2, 20));
    const auto split = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(seq_len)));
    const auto bases = static_cast<std::size_t>(rng.uniform_int(2, 4));
    nn::Lstm lstm(input_dim, hidden_dim, rng);

    std::vector<nn::Lstm::PrefixState> snapshots;
    std::vector<nn::Matrix> sequences;
    std::vector<std::size_t> base_of;
    for (std::size_t b = 0; b < bases; ++b) {
      const nn::Matrix base = random_sequence(seq_len, input_dim, rng);
      nn::Matrix prefix(split, input_dim);
      for (std::size_t t = 0; t < split; ++t) {
        std::copy(base.row(t).begin(), base.row(t).end(), prefix.row(t).begin());
      }
      snapshots.push_back(lstm.initial_state());
      lstm.advance(snapshots.back(), prefix);
      const auto members = static_cast<std::size_t>(rng.uniform_int(1, 3));
      for (std::size_t m = 0; m < members; ++m) {
        sequences.push_back(base);
        for (std::size_t t = split; t < seq_len; ++t) {
          for (double& v : sequences.back().row(t)) v = rng.uniform(-1.5, 1.5);
        }
        base_of.push_back(b);
      }
    }
    std::vector<const nn::Matrix*> seq_ptrs;
    std::vector<const nn::Lstm::PrefixState*> starts;
    for (std::size_t i = 0; i < sequences.size(); ++i) {
      seq_ptrs.push_back(&sequences[i]);
      starts.push_back(&snapshots[base_of[i]]);
    }

    const nn::Matrix finals = lstm.run_batch_multi(seq_ptrs, starts, split);
    ASSERT_EQ(finals.rows(), sequences.size());
    for (std::size_t i = 0; i < sequences.size(); ++i) {
      expect_row_bitwise(finals, i, lstm.forward(sequences[i]), seq_len - 1,
                         "run_batch_multi", trial);
    }
  }
}

TEST(PrefixStateProperty, ForwardBatchCachedFillsReferenceCaches) {
  // All seven computed cache matrices, not just the hidden states: backward()
  // consumes every one of them.
  common::Rng rng(0xCAC4E);
  for (int trial = 0; trial < 30; ++trial) {
    const auto input_dim = static_cast<std::size_t>(rng.uniform_int(1, 5));
    const auto hidden_dim = static_cast<std::size_t>(rng.uniform_int(1, 16));
    const auto seq_len = static_cast<std::size_t>(rng.uniform_int(1, 20));
    const auto batch = static_cast<std::size_t>(rng.uniform_int(1, 6));
    nn::Lstm lstm(input_dim, hidden_dim, rng);
    std::vector<nn::Matrix> sequences;
    for (std::size_t b = 0; b < batch; ++b) {
      sequences.push_back(random_sequence(seq_len, input_dim, rng));
    }

    std::vector<nn::Lstm::Cache> caches;
    lstm.forward_batch_cached(sequences, caches);
    ASSERT_EQ(caches.size(), batch);
    for (std::size_t b = 0; b < batch; ++b) {
      nn::Lstm::Cache ref;
      lstm.forward_cached(sequences[b], ref);
      const std::pair<const nn::Matrix nn::Lstm::Cache::*, const char*> fields[] = {
          {&nn::Lstm::Cache::gate_i, "gate_i"}, {&nn::Lstm::Cache::gate_f, "gate_f"},
          {&nn::Lstm::Cache::gate_g, "gate_g"}, {&nn::Lstm::Cache::gate_o, "gate_o"},
          {&nn::Lstm::Cache::cell, "cell"},     {&nn::Lstm::Cache::cell_tanh, "cell_tanh"},
          {&nn::Lstm::Cache::hidden, "hidden"}};
      for (const auto& [field, name] : fields) {
        const nn::Matrix& got = caches[b].*field;
        const nn::Matrix& want = ref.*field;
        ASSERT_TRUE(got.same_shape(want)) << name;
        for (std::size_t t = 0; t < seq_len; ++t) {
          expect_row_bitwise(got, t, want, t, name, trial);
        }
      }
    }
  }
}

TEST(BatchedParity, ProbeAccountingCountsWholeBatches) {
  // Not a timing test (CI noise), but the probe accounting must show the
  // batched path actually batching: ordered greedy issues the benign
  // baseline plus whole value_candidates-sized batches per probed position.
  const auto& f = fixture();
  attack::AttackConfig config;
  config.batched_probes = true;
  const attack::EvasionAttack attack(config);
  const auto result = attack.attack_window(*f.model, f.windows[1]);
  ASSERT_GE(result.probes, 1u);  // at least the benign baseline
  EXPECT_EQ((result.probes - 1) % config.value_candidates, 0u);
}

}  // namespace
}  // namespace goodones
