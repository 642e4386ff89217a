#include "harmony/api.h"

#include <cassert>

#include "core/strategy_spec.h"

namespace protuner::harmony {

SessionBuilder& SessionBuilder::add_int(std::string name, long lo, long hi) {
  params_.push_back(core::Parameter::integer(std::move(name), lo, hi));
  return *this;
}

SessionBuilder& SessionBuilder::add_continuous(std::string name, double lo,
                                               double hi) {
  params_.push_back(core::Parameter::continuous(std::move(name), lo, hi));
  return *this;
}

SessionBuilder& SessionBuilder::add_discrete(std::string name,
                                             std::vector<double> values) {
  params_.push_back(
      core::Parameter::discrete(std::move(name), std::move(values)));
  return *this;
}

SessionBuilder& SessionBuilder::strategy_spec(std::string spec) {
  strategy_spec_ = std::move(spec);
  return *this;
}

SessionBuilder& SessionBuilder::clients(std::size_t n) {
  assert(n >= 1);
  clients_ = n;
  return *this;
}

SessionBuilder& SessionBuilder::report_timeout(double seconds) {
  assert(seconds >= 0.0);
  server_options_.report_timeout = std::chrono::duration<double>(seconds);
  return *this;
}

SessionBuilder& SessionBuilder::impute_penalty(double factor) {
  assert(factor >= 1.0);
  server_options_.impute_penalty = factor;
  return *this;
}

SessionBuilder& SessionBuilder::straggler_policy(StragglerPolicy policy) {
  server_options_.straggler_policy = policy;
  return *this;
}

SessionBuilder& SessionBuilder::observer(core::SessionObserver* obs) {
  server_options_.observer = obs;
  return *this;
}

SessionBuilder& SessionBuilder::session(std::string name) {
  server_options_.session = std::move(name);
  return *this;
}

core::ParameterSpace SessionBuilder::space() const {
  assert(!params_.empty());
  return core::ParameterSpace(params_);
}

std::unique_ptr<Server> SessionBuilder::build() const {
  const core::ParameterSpace sp = space();
  return std::make_unique<Server>(core::make_strategy(strategy_spec_, sp),
                                  clients_, server_options_);
}

}  // namespace protuner::harmony
