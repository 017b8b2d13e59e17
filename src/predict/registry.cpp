#include "predict/registry.hpp"

#include "common/error.hpp"
#include "common/logging.hpp"
#include "data/window.hpp"

namespace goodones::predict {

const BiLstmForecaster& ModelRegistry::personalized(std::size_t entity_index) const {
  GO_EXPECTS(entity_index < personalized_.size());
  return *personalized_[entity_index];
}

const BiLstmForecaster& ModelRegistry::aggregate() const {
  GO_EXPECTS(aggregate_ != nullptr);
  return *aggregate_;
}

ModelRegistry ModelRegistry::train(const std::vector<const data::TelemetrySeries*>& train_series,
                                   const std::vector<std::string>& names,
                                   const RegistryConfig& config, common::ThreadPool& pool) {
  GO_EXPECTS(!train_series.empty());
  GO_EXPECTS(names.size() == train_series.size());
  GO_EXPECTS(config.target_max > config.target_min);
  for (const auto* series : train_series) GO_EXPECTS(series != nullptr);
  ModelRegistry registry;
  registry.personalized_.resize(train_series.size());

  // Personalized models in parallel; each derives its own seed so results
  // do not depend on scheduling. Each task cuts its entity's (subsampled)
  // training windows and drops them once its model is trained.
  data::WindowConfig train_window = config.window;
  train_window.step = config.train_window_step;
  common::parallel_for(pool, train_series.size(), [&](std::size_t i) {
    ForecasterConfig fc = config.forecaster;
    fc.seed = config.forecaster.seed * 1000 + i;
    fc.target_channel = config.target_channel;
    auto model = std::make_unique<BiLstmForecaster>(
        fc, fit_forecaster_scaler(train_series[i]->values, config.target_channel,
                                  config.target_min, config.target_max));
    const double loss = model->train(data::make_windows(*train_series[i], train_window));
    common::log_info("personalized model ", names[i], " trained, final MSE(norm)=", loss);
    registry.personalized_[i] = std::move(model);
  });

  // Aggregate model: pool windows across all entities with a larger stride.
  data::WindowConfig agg_window = config.window;
  agg_window.step = config.aggregate_window_step;
  std::vector<data::Window> pooled;
  data::MinMaxScaler agg_scaler;
  for (std::size_t i = 0; i < train_series.size(); ++i) {
    auto windows = data::make_windows(*train_series[i], agg_window);
    pooled.insert(pooled.end(), std::make_move_iterator(windows.begin()),
                  std::make_move_iterator(windows.end()));
    agg_scaler.partial_fit(train_series[i]->values);
  }
  agg_scaler.set_column_range(config.target_channel, config.target_min, config.target_max);

  ForecasterConfig agg_config = config.forecaster;
  agg_config.seed = config.forecaster.seed * 1000 + 999;
  agg_config.target_channel = config.target_channel;
  registry.aggregate_ = std::make_unique<BiLstmForecaster>(agg_config, agg_scaler);
  const double agg_loss = registry.aggregate_->train(pooled);
  common::log_info("aggregate model trained on ", pooled.size(),
                   " windows, final MSE(norm)=", agg_loss);
  return registry;
}

}  // namespace goodones::predict
