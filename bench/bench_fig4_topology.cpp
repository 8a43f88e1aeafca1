// Experiment E5 — Fig. 4 + §IV-A (power-topology scenario under the
// automatic update-generation tool).
//
// The red-team experiment required an automatic tool that "cycles
// through the breakers, flipping each periodically in a predetermined
// cycle". This bench runs that workload over the full Fig. 4 scenario
// (the 7-breaker physical PLC plus the ten emulated distribution PLCs)
// and verifies that the replicated SCADA system drives every flip into
// the field and that the HMI tracks every resulting breaker transition.
#include <map>

#include "bench_util.hpp"
#include "scada/deployment.hpp"

using namespace spire;

int main(int argc, char** argv) {
  bench::init_logging(argc, argv);
  bench::print_header(
      "E5", "Fig. 4 + §IV-A",
      "The predetermined breaker cycle is executed faithfully: every "
      "commanded flip reaches the field devices and the HMI display");

  sim::Simulator sim;
  scada::DeploymentConfig config;
  config.f = 1;
  config.k = 0;
  config.scenario = scada::ScenarioSpec::red_team();
  config.cycler_interval = 400 * sim::kMillisecond;
  scada::SpireDeployment spire_sys(sim, config);

  // Ground-truth transitions per (device, breaker), and HMI display
  // transitions per (device, breaker).
  std::map<std::pair<std::string, std::size_t>, int> field_transitions;
  std::map<std::pair<std::string, std::size_t>, int> hmi_transitions;
  std::map<std::pair<std::string, std::size_t>, std::vector<double>> lags;
  std::map<std::pair<std::string, std::size_t>, sim::Time> last_field_change;

  for (const auto& device : config.scenario.devices) {
    auto& plc = spire_sys.plc(device.name);
    const std::string name = device.name;
    plc.breakers().add_observer(
        [&, name](std::size_t index, bool, sim::Time at) {
          field_transitions[{name, index}]++;
          last_field_change[{name, index}] = at;
        });
  }
  spire_sys.hmi(0).set_display_observer(
      [&](const std::string& device, std::size_t index, bool, sim::Time at) {
        const auto key = std::make_pair(device, index);
        hmi_transitions[key]++;
        const auto it = last_field_change.find(key);
        if (it != last_field_change.end() && at >= it->second) {
          lags[key].push_back(static_cast<double>(at - it->second) /
                              sim::kMillisecond);
        }
      });

  spire_sys.start();

  // Two full cycles over all 47 breakers, then stop the tool and let
  // the last commands settle before tallying.
  const auto total_breakers =
      static_cast<sim::Time>(config.scenario.total_breakers());
  const sim::Time cycle = total_breakers * config.cycler_interval;
  sim.run_until(2 * sim::kSecond + 2 * cycle);
  spire_sys.cycler()->stop();
  sim.run_until(sim.now() + 3 * sim::kSecond);

  // Tally per device.
  bench::Report report(
      "fig4_topology",
      "the HMI tracks the predetermined cycle with zero missed transitions");
  std::map<std::string, int> commands_per_device;
  for (const auto& event : spire_sys.cycler()->history()) {
    commands_per_device[event.device]++;
  }

  int total_commands = 0, total_field = 0, total_hmi = 0, total_missed = 0;
  std::vector<double> all_lags;
  for (const auto& device : config.scenario.devices) {
    int field = 0, hmi = 0, missed = 0;
    for (std::size_t b = 0; b < device.breaker_names.size(); ++b) {
      const auto key = std::make_pair(device.name, b);
      field += field_transitions[key];
      hmi += hmi_transitions[key];
      missed += std::max(0, field_transitions[key] - hmi_transitions[key]);
      for (const double lag : lags[key]) all_lags.push_back(lag);
    }
    total_commands += commands_per_device[device.name];
    total_field += field;
    total_hmi += hmi;
    total_missed += missed;
    const std::string p = device.name + " (" +
                          std::to_string(device.breaker_names.size()) +
                          " breakers): ";
    report.add(p + "commands", commands_per_device[device.name]);
    report.add(p + "field transitions", field);
    report.add(p + "HMI transitions", hmi);
    report.check(p + "missed on HMI", missed, bench::Cmp::kEq, 0);
  }
  // Every command produces a field transition (first toggle of a
  // breaker that is already in the commanded state is a no-op, so
  // field transitions may lag commands slightly), and the HMI misses
  // nothing.
  report.add("total breakers", config.scenario.total_breakers());
  report.add("total commands", total_commands);
  report.check("total field transitions", total_field, bench::Cmp::kGe,
               std::max(1, total_commands / 2));
  report.check("total HMI transitions", total_hmi, bench::Cmp::kEq,
               total_field);
  report.add("total missed on HMI", total_missed);

  report.latency.add("HMI tracking lag after a field transition",
                     std::move(all_lags));
  report.latency.print("HMI tracking");

  const obs::MetricsRegistry& registry = obs::MetricsRegistry::current();
  bench::add_overlay_rows(report, "internal", spire_sys.internal_overlay(),
                          registry);
  bench::add_overlay_rows(report, "external", spire_sys.external_overlay(),
                          registry);
  bench::add_switch_drop_rows(report, "", spire_sys);
  std::printf("\n");
  return report.finish(argc, argv);
}
